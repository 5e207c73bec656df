package ktree_test

import (
	"fmt"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/ktree/internal/poison"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// churn replaces n of ring's nodes and repairs tree, returning the nodes
// the pass discarded (reachable before it, not after).
func churn(t *testing.T, ring *chord.Ring, tree *ktree.Tree, n int) (discarded []*ktree.Node) {
	t.Helper()
	var before []*ktree.Node
	tree.Walk(func(nd *ktree.Node) { before = append(before, nd) })
	profile := workload.GnutellaProfile()
	for _, v := range ring.AliveNodes()[:n] {
		ring.RemoveNode(v)
	}
	for i := 0; i < n; i++ {
		ring.AddNode(-1, profile.Sample(ring.Engine().Rand()), 5)
	}
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	live := make(map[*ktree.Node]bool, len(before))
	tree.Walk(func(nd *ktree.Node) { live[nd] = true })
	for _, nd := range before {
		if !live[nd] {
			discarded = append(discarded, nd)
		}
	}
	return discarded
}

// roundAcrossRepair runs one message-level round on a 256-node ring and,
// at tick at of the round, replaces eight nodes and repairs the tree
// under it. It returns a fingerprint of everything the round and the
// ring ended with, and the nodes the mid-round Repair discarded.
func roundAcrossRepair(t *testing.T, at sim.Time) (fingerprint string, discarded []*ktree.Node, ring *chord.Ring, tree *ktree.Tree) {
	t.Helper()
	eng := sim.NewEngine(11)
	ring = chord.NewRing(eng, chord.Config{})
	profile := workload.GnutellaProfile()
	for i := 0; i < 256; i++ {
		ring.AddNode(-1, profile.Sample(eng.Rand()), 5)
	}
	model := workload.Gaussian{Mu: 25600, Sigma: 64}
	for _, vs := range ring.VServers() {
		vs.Load = model.Load(eng.Rand(), ring.RegionOf(vs).Fraction())
	}
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

// TestNoReaderOfDiscardedNodes is the proof recycling ships with. A
// protocol round holds *ktree.Node pointers across engine events, so a
// Repair under a round in flight discards nodes the round goes on
// reading: at tick 22 of this round the LBI collect is deep in the
// subtrees being replaced, at tick 80 the dissemination is, and blanking
// nodes the moment they are discarded crashes the round at both (tried
// while this was written). The contract (package comment, "Stale
// holders") is therefore that a discarded node stays exactly as it was
// until the next pass begins; the poison hook blanks it at that moment,
// so whatever reads one later crashes or diverges instead of quietly
// following a recycled node. The round must come out identical with the
// hook on.
func TestNoReaderOfDiscardedNodes(t *testing.T) {
	var discardedP []*ktree.Node
	var ring *chord.Ring
	var tree *ktree.Tree
	for _, at := range []sim.Time{22, 80} {
		plain, discarded, _, _ := roundAcrossRepair(t, at)
		poison.Freed = true
		var poisoned string
		poisoned, discardedP, ring, tree = roundAcrossRepair(t, at)
		poison.Freed = false
		if len(discardedP) != len(discarded) {
			t.Fatalf("tick %d: mid-round repair discarded %d nodes poisoned, %d plain", at, len(discardedP), len(discarded))
		}
		if poisoned != plain {
			t.Errorf("tick %d: a round in flight across a Repair differs under poison:\n plain    %s\n poisoned %s", at, plain, poisoned)
		}
	}
	poison.Freed = true
	defer func() { poison.Freed = false }()

	// Teeth: a deliberately stale reader. One pass on, the discarded
	// nodes are still whole (the round's own end-of-round Repair found
	// nothing dirty, so no pass has begun since); a second pass releases
	// them, and the hook makes that visible on every one the pass did not
	// at once plant again somewhere else.
	for _, nd := range discardedP {
		if nd.Host == nil || nd.Region.IsEmpty() {
			t.Fatalf("node discarded by the latest pass was touched before the next pass began: %+v", *nd)
		}
	}
	churn(t, ring, tree, 4)
	live := make(map[*ktree.Node]bool)
	tree.Walk(func(nd *ktree.Node) { live[nd] = true })
	blank := 0
	for _, nd := range discardedP {
		switch {
		case live[nd]: // recycled: the stale reader now follows a different node
		case nd.Host == nil && nd.Parent == nil && nd.Children == nil && nd.Region.IsEmpty():
			blank++
		default:
			t.Fatalf("stale reader went uncaught: a node discarded two passes ago is neither blank nor replanted: %+v", *nd)
		}
	}
	if blank == 0 {
		t.Fatalf("the second pass replanted all %d discarded nodes; none left to show the poison", len(discardedP))
	}
	t.Logf("mid-round repair discarded %d nodes the round went on reading; the next pass replanted %d and blanked %d",
		len(discardedP), len(discardedP)-blank, blank)
}
