package chord

import (
	"runtime"
	"testing"
	"time"

	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// churnRing is a bulk-built ring of five virtual servers a node and the
// lowest node index that may still be alive.
type churnRing struct {
	r    *Ring
	next int
}

func newChurnRing(nodes int) *churnRing {
	eng := sim.NewEngine(1)
	r := NewRing(eng, Config{})
	r.BulkAddNodes(nodes, 5, func(int) topology.NodeID { return -1 }, func(int) float64 { return 100 })
	return &churnRing{r: r}
}

// perNode returns the host time one node leaving and one joining cost,
// averaged over the n lowest-indexed live nodes leaving and n joining.
func (c *churnRing) perNode(n int) time.Duration {
	leave := make([]*Node, 0, n)
	for all := c.r.Nodes(); len(leave) < n; c.next++ {
		if all[c.next].Alive {
			leave = append(leave, all[c.next])
		}
	}
	start := time.Now()
	for _, nd := range leave {
		c.r.RemoveNode(nd)
	}
	for range leave {
		c.r.AddNode(-1, 100, 5)
	}
	return time.Since(start) / time.Duration(n)
}

// TestChurnCostFollowsChanges holds a node's leave and join to a cost
// that does not grow with the ring: per node, churn at 256k virtual
// servers must stay within 2× of churn at 64k on the same host. A ring
// that shifts one sorted array per join or leave pays about 10× here.
// The two rings take turns, short batches each, and each keeps its
// least batch, so a burst of load from elsewhere on the host lands on
// some batches of both sizes, not on all of one.
func TestChurnCostFollowsChanges(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping, not the ring, sets the cost")
	}
	const batch, reps = 50, 15
	small, large := newChurnRing(64<<10/5), newChurnRing(256<<10/5)
	runtime.GC() // no collection of the build's garbage runs beside the batches
	bestSmall, bestLarge := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for rep := 0; rep < reps; rep++ {
		bestSmall = min(bestSmall, small.perNode(batch))
		bestLarge = min(bestLarge, large.perNode(batch))
	}
	small.r.CheckInvariants()
	large.r.CheckInvariants()
	t.Logf("per node leave+join: %v at 64k VSs, %v at 256k (ratio %.2f)", bestSmall, bestLarge, float64(bestLarge)/float64(bestSmall))
	if bestLarge > 2*bestSmall {
		t.Fatalf("per node leave+join costs %v at 256k VSs, more than 2× the %v at 64k", bestLarge, bestSmall)
	}
}
