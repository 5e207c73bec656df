package core

import (
	"runtime"
	"testing"
)

// TestRunRoundAllocBudget bounds what one closed-form round allocates
// per virtual server, on BenchmarkRunRound's 12,800-VS ring. The round
// allocates about 125 B/VS: its assignments, the classification and the
// placement, while the VSA sweep pairs every KT node's list in place on
// its walk's entry stack into reused pair scratch. The budget is 1.25
// times that. Copying each child's list into its parent's (333 B/VS),
// making each rendezvous point's pairs afresh (167 B/VS) or giving
// every walk its own assignment slice for the root to copy (182 B/VS)
// each break it.
func TestRunRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const budget = 157 // bytes per virtual server
	ring, tree := buildLoadedRing(1, 2560, 5)
	bal, err := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := bal.RunRound(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perVS := float64(after.TotalAlloc-before.TotalAlloc) / float64(ring.NumVServers())
	t.Logf("one round over %d VSs: %d allocations, %.1f B/VS", ring.NumVServers(), after.Mallocs-before.Mallocs, perVS)
	if perVS > budget {
		t.Errorf("one round allocated %.1f B per virtual server, want <= %d", perVS, budget)
	}
}
