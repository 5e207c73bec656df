package ktree_test

import (
	"fmt"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// churn replaces n of ring's nodes and repairs tree, returning the nodes
// the pass discarded (reachable before it, not after).
func churn(t *testing.T, ring *chord.Ring, tree *ktree.Tree, n int) (discarded []ktree.Handle) {
	t.Helper()
	var before []ktree.Handle
	tree.Walk(func(h ktree.Handle) { before = append(before, h) })
	for _, v := range ring.AliveNodes()[:n] {
		ring.RemoveNode(v)
	}
	for i := 0; i < n; i++ {
		workload.Join(ring, -1, 5, nil)
	}
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	live := make(map[ktree.Handle]bool, len(before))
	tree.Walk(func(h ktree.Handle) { live[h] = true })
	for _, h := range before {
		if !live[h] {
			discarded = append(discarded, h)
		}
	}
	return discarded
}

// roundAcrossRepair runs one message-level round on a 256-node ring and,
// at tick at of the round, replaces eight nodes and repairs the tree
// under it. It returns a fingerprint of everything the round and the
// ring ended with, and the nodes the mid-round Repair discarded.
func roundAcrossRepair(t *testing.T, at sim.Time) (fingerprint string, discarded []ktree.Handle, ring *chord.Ring, tree *ktree.Tree) {
	t.Helper()
	eng := sim.NewEngine(11)
	ring = workload.NewRing(eng, workload.RingSpec{Nodes: 256, VSPerNode: 5,
		Loads: workload.Gaussian{Mu: 25600, Sigma: 64}})
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	runner, err := protocol.NewRunner(ring, tree, protocol.Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 200})
	if err != nil {
		t.Fatal(err)
	}
	var res *protocol.Result
	var resErr error
	finished := false
	if err := runner.StartRound(func(r *protocol.Result, e error) { res, resErr, finished = r, e, true }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + at)
	if finished {
		t.Fatal("round finished before the mid-round repair; the test covers nothing")
	}
	discarded = churn(t, ring, tree, 8)
	if len(discarded) == 0 {
		t.Fatal("mid-round repair discarded nothing; the test covers nothing")
	}
	eng.Run()
	if !finished {
		t.Fatal("round never completed")
	}
	if resErr != nil {
		t.Fatal(resErr)
	}
	fingerprint = fmt.Sprintf("global=%v heavy=%d/%d assign=%d unassigned=%d moved=%v times=%d/%d/%d/%d timedout=%d aborted=%d retries=%d msgs=%d now=%d gini=%v nodes=%d",
		res.Global, res.HeavyBefore, res.HeavyAfter, len(res.Assignments), res.UnassignedOffers, res.MovedLoad,
		res.TimeLBIAggregate, res.TimeLBIDisseminate, res.TimeVSAComplete, res.TimeVSTComplete,
		res.TimedOutChildren, res.AbortedTransfers, res.Retries, eng.TotalMessages(), eng.Now(),
		core.UnitLoadGini(ring), tree.NumNodes())
	return fingerprint, discarded, ring, tree
}

// TestNoReaderOfDiscardedNodes is the proof that handles are safe to
// hold. A protocol round holds ktree.Handles across engine events, so a
// Repair under a round in flight discards nodes the round goes on
// reading: at tick 22 of this round the LBI collect is deep in the
// subtrees being replaced, at tick 80 the dissemination is. The contract
// (package comment, "Stale holders") is that a discarded node's record
// stays exactly as it was until the next pass begins, and that from then
// on Follow reports its handle stale. So the round reads the outdated
// subtrees whole — the fingerprints below are the ones the round made
// when the tree was a graph of pointers — and never finds a stale
// handle; and a handle held across a second pass reads as stale, and
// is counted, instead of being followed into a recycled slot.
func TestNoReaderOfDiscardedNodes(t *testing.T) {
	pinned := map[sim.Time]string{
		22: "global={25061.122868598235 20815 0 true} heavy=170/20 assign=511 unassigned=0 moved=13377.795887614657 times=1044/1068/1136/1144 timedout=37 aborted=0 retries=0 msgs=65574 now=1146 gini=0.6911421182561739 nodes=5520",
		80: "global={25671.371563836958 21226 0 true} heavy=175/36 assign=503 unassigned=0 moved=13025.337056460803 times=60/86/152/160 timedout=0 aborted=0 retries=0 msgs=65610 now=162 gini=0.6857582477599016 nodes=5520",
	}
	var discarded []ktree.Handle
	var ring *chord.Ring
	var tree *ktree.Tree
	for _, at := range []sim.Time{22, 80} {
		var fingerprint string
		fingerprint, discarded, ring, tree = roundAcrossRepair(t, at)
		if fingerprint != pinned[at] {
			t.Errorf("tick %d: a round in flight across a Repair differs from the pointer-graph tree's:\n got    %s\n pinned %s", at, fingerprint, pinned[at])
		}
		if n := tree.StaleFollows(); n != 0 {
			t.Errorf("tick %d: the round found %d stale handles across one Repair", at, n)
		}
	}

	// Teeth: a deliberately stale reader. One pass on, the discarded
	// nodes still read as what they were (the round's own end-of-round
	// Repair found nothing dirty, so no pass has begun since); a second
	// pass frees their slots, and every one reads as stale from then on,
	// whether or not the pass planted another node in it.
	for _, h := range discarded {
		if !tree.Follow(h) {
			t.Fatalf("handle %d discarded by the latest pass read as stale before the next pass began", h.Index())
		}
	}
	churn(t, ring, tree, 4)
	live := make(map[int]bool)
	tree.Walk(func(h ktree.Handle) { live[h.Index()] = true })
	replanted := 0
	for _, h := range discarded {
		if tree.Follow(h) {
			t.Fatalf("stale reader went uncaught: handle %d, discarded two passes ago, still follows", h.Index())
		}
		if live[h.Index()] {
			replanted++
		}
	}
	if got := tree.StaleFollows(); got != int64(len(discarded)) {
		t.Errorf("%d stale follows counted, want one per discarded handle (%d)", got, len(discarded))
	}
	if replanted == 0 {
		t.Error("the second pass replanted none of the discarded slots; the test covers no recycling")
	}
	t.Logf("mid-round repair discarded %d nodes the round went on reading; the next pass replanted %d of their slots",
		len(discarded), replanted)
}
