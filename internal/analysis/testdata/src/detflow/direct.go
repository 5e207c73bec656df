// The direct cases: a forbidden input read, or order-sensitive work
// done right under a map range with nothing in between, and the stores
// that leave map-order state behind without returning it.
package detflow

import (
	"math/rand"
	"sort"
	"time"

	"p2plb/internal/sim"
)

// badClock reads the wall clock.
func badClock() int64 {
	return time.Now().UnixNano() // want "time.Now"
}

// badGlobalRand draws from the global math/rand source.
func badGlobalRand() int {
	return rand.Intn(10) // want "global math/rand source"
}

// goodSeededRand draws from a seeded source.
func goodSeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// badMapOrder returns results in map-iteration order.
func badMapOrder(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want "returns a value built in map-iteration order"
}

// goodMapSorted sorts the collected keys before returning them.
func goodMapSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// badFloatSum accumulates floats in map order: addition is not
// associative, so the low bits depend on iteration order.
func badFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum // want "float-accumulated in map-iteration order"
}

// badScheduleRangeValue enqueues engine events in map-iteration order.
func badScheduleRangeValue(eng *sim.Engine, m map[string]sim.Time) {
	for _, d := range m {
		eng.ScheduleEv(d, sim.Func(func() {})) // want "sim.Engine.ScheduleEv derived from map-iteration order"
	}
}

// badDeliverRangeValue sends one message per entry in map-iteration
// order.
func badDeliverRangeValue(eng *sim.Engine, m map[string]sim.Time, ev sim.Eventer) {
	for _, d := range m {
		eng.DeliverEv("k", 0, 0, 1, d, ev) // want "sim.Engine.DeliverEv derived from map-iteration order"
	}
}

// goodSliceRange ranges over a slice, which is ordered.
func goodSliceRange(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// badInClosure builds and returns a map-order slice inside a function
// literal, which is analyzed as a function of its own.
func badInClosure(m map[string]int) func() []string {
	return func() []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		return out // want "returns a value built in map-iteration order"
	}
}

type agg struct {
	sum  float64
	keys []string
}

var global []string

// badFieldSum accumulates floats into a field in map order.
func (a *agg) badFieldSum(m map[string]float64) {
	for _, v := range m {
		a.sum += v // want "stores a value float-accumulated in map-iteration order"
	}
}

// badFieldAppend builds a field's slice in map order.
func (a *agg) badFieldAppend(m map[string]int) {
	for k := range m {
		a.keys = append(a.keys, k) // want "stores a value built in map-iteration order"
	}
}

// badGlobalAppend builds a package variable in map order.
func badGlobalAppend(m map[string]int) {
	for k := range m {
		global = append(global, k) // want "stores a value built in map-iteration order"
	}
}

// badElementAppend groups keys into a caller's map in map order.
func badElementAppend(groups map[int][]string, m map[string]int) {
	for k, g := range m {
		groups[g] = append(groups[g], k) // want "stores a value built in map-iteration order"
	}
}

// badPointerAppend builds a caller's slice through a pointer.
func badPointerAppend(dst *[]string, m map[string]int) {
	for k := range m {
		*dst = append(*dst, k) // want "stores a value built in map-iteration order"
	}
}

// goodFieldSorted leaves the field sorted when it returns.
func (a *agg) goodFieldSorted(m map[string]int) {
	for k := range m {
		a.keys = append(a.keys, k)
	}
	sort.Strings(a.keys)
}

// goodFieldFromSorted stores a slice that was sorted first.
func (a *agg) goodFieldFromSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	a.keys = keys
}

// sortKeys is a canonicalizing method: sorting the receiver sorts what
// it holds.
func (a *agg) sortKeys() { sort.Strings(a.keys) }

// goodFieldMethodSorted leaves the field sorted through a method of
// its holder.
func (a *agg) goodFieldMethodSorted(m map[string]int) {
	for k := range m {
		a.keys = append(a.keys, k)
	}
	a.sortKeys()
}
