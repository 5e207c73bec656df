// Fixture for the nondeterminism analyzer (testdata packages are
// always treated as deterministic scope).
package nondeterminism

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
		keys = append(keys, k) // want "map-iteration order"
	}
	return keys
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
		sum += v // want "order-sensitive"
	}
	return sum
}

// goodIntSum accumulates integers, which commute exactly.
func goodIntSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// badSchedule enqueues engine events in map-iteration order.
func badSchedule(eng *sim.Engine, m map[string]sim.Time) {
	for _, d := range m {
		eng.ScheduleEv(d, sim.Func(func() {})) // want "map-iteration order"
	}
}

// badDeliver sends one message per entry in map-iteration order.
func badDeliver(eng *sim.Engine, m map[string]sim.Time, ev sim.Eventer) {
	for _, d := range m {
		eng.DeliverEv("k", 0, 0, 1, d, ev) // want "map-iteration order"
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
