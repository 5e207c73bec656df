// Fixture for the detflow analyzer (testdata packages are always in
// the deterministic scope). The direct cases live in direct.go, the
// laundered helper-call case in laundered.go.
package detflow

import (
	"sort"
	"unsafe"

	"p2plb/internal/metrics"
	"p2plb/internal/sim"
)

// badSend builds a slice in map order and sends it: the receiving
// goroutine observes a run-dependent element order.
func badSend(m map[string]int, ch chan []string) {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	ch <- out // want "sends a value built in map-iteration order"
}

// goodSendSorted sorts before sending.
func goodSendSorted(m map[string]int, ch chan []string) {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	ch <- out
}

// badSchedule feeds a map-order-derived delay into the event engine:
// same-tick events then pop in insertion order, which is map order.
func badSchedule(e *sim.Engine, m map[string]int) {
	for _, v := range m {
		d := v
		e.ScheduleEv(sim.Time(d), sim.Func(func() {})) // want "sim.Engine.ScheduleEv"
	}
}

// badDeliver sends one message per map entry, its cost taken from the
// entry: copies of equal cost land on one tick in map order.
func badDeliver(e *sim.Engine, m map[string]int, ev sim.Eventer) {
	for _, v := range m {
		cost := sim.Time(v)
		e.DeliverEv("k", 0, 0, 1, cost, ev) // want "sim.Engine.DeliverEv"
	}
}

// badAfter arms a timer per map entry with a map-derived timeout.
func badAfter(e *sim.Engine, m map[string]int, ev sim.Eventer) {
	for _, v := range m {
		d := v
		e.AfterEv(sim.Time(d), ev) // want "sim.Engine.AfterEv"
	}
}

// goodScheduleSorted iterates a sorted snapshot of the map.
func goodScheduleSorted(e *sim.Engine, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.ScheduleEv(sim.Time(m[k]), sim.Func(func() {}))
	}
}

// goodDeliverSorted sends and arms timers in sorted key order.
func goodDeliverSorted(e *sim.Engine, m map[string]int, ev sim.Eventer) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		e.DeliverEv("k", uint64(i), 0, 1, sim.Time(m[k]), ev)
		e.AfterEv(sim.Time(m[k]), ev)
	}
}

// badMetric keys a counter by map-iteration order: the registry's
// get-or-create order (and any first-wins labelling) becomes
// run-dependent.
func badMetric(reg *metrics.Registry, m map[string]int) {
	for name := range m {
		if reg != nil {
			reg.Counter(name).Inc() // want "metrics call Counter"
		}
	}
}

// goodIntSum reduces map values commutatively: integer addition is
// exact, so iteration order cannot leak into the result.
func goodIntSum(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// badStringConcat accumulates a string in map order: concatenation is
// order-sensitive even though each piece is deterministic.
func badStringConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s // want "concatenated in map-iteration order"
}

type node struct{ id int }

// badPtrOrder records pointer identities: addresses vary run to run,
// so the returned values (not just their order) are nondeterministic.
func badPtrOrder(ps []*node) []uintptr {
	var out []uintptr
	for _, p := range ps {
		out = append(out, uintptr(unsafe.Pointer(p)))
	}
	return out // want "pointer identity"
}

// goodPtrLocal observes a pointer identity but keeps it local (a
// debug-only comparison that never escapes).
func goodPtrLocal(a, b *node) bool {
	return uintptr(unsafe.Pointer(a)) == uintptr(unsafe.Pointer(b))
}

// goodReassigned shows the strong update: a tainted variable
// wholesale-reassigned from a clean source is clean again.
func goodReassigned(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	out = []string{"fixed"}
	return out
}

// badBranchJoin taints only one branch; the join keeps the taint (may
// analysis), so the return is still flagged.
func badBranchJoin(m map[string]int, pick bool) []string {
	var out []string
	if pick {
		for k := range m {
			out = append(out, k)
		}
	} else {
		out = append(out, "stable")
	}
	return out // want "map-iteration order"
}
