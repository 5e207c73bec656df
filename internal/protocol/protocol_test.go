package protocol

import (
	"math"
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/proximity"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// fixture builds a loaded heterogeneous ring + tree on a fresh engine.
func fixture(seed int64, nodes, vsPer int) (*chord.Ring, *ktree.Tree) {
	mu := float64(nodes) * 100
	ring := workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: vsPer,
		Loads: workload.Gaussian{Mu: mu, Sigma: mu / 400}})
	tree, err := ktree.New(ring, 2)
	if err != nil {
		panic(err)
	}
	if err := tree.Build(); err != nil {
		panic(err)
	}
	return ring, tree
}

func runOneRound(t *testing.T, ring *chord.Ring, tree *ktree.Tree, cfg Config) *Result {
	t.Helper()
	r, err := NewRunner(ring, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewRunnerValidation(t *testing.T) {
	ring, tree := fixture(1, 16, 3)
	if _, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: -1}}); err == nil {
		t.Error("invalid core config should fail")
	}
	if _, err := NewRunner(ring, tree, Config{ChildTimeout: -1}); err == nil {
		t.Error("negative timeout should fail")
	}
	other, _ := fixture(2, 8, 2)
	otherTree, _ := ktree.New(other, 2)
	if _, err := NewRunner(ring, otherTree, Config{}); err == nil {
		t.Error("mismatched ring/tree should fail")
	}
}

func TestRoundBalancesStaticRing(t *testing.T) {
	ring, tree := fixture(3, 192, 5)
	res := runOneRound(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if res.HeavyBefore < 96 {
		t.Fatalf("fixture too tame: %d heavy", res.HeavyBefore)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("%d heavy remain (unassigned offers: %d)", res.HeavyAfter, res.UnassignedOffers)
	}
	if res.TimedOutChildren != 0 || res.AbortedTransfers != 0 {
		t.Errorf("static ring should have no timeouts/aborts: %d/%d",
			res.TimedOutChildren, res.AbortedTransfers)
	}
	if res.NodesClassified != 192 {
		t.Errorf("classified %d nodes, want 192", res.NodesClassified)
	}
	if math.Abs(res.MovedByHops.Total()-res.MovedLoad) > 1e-6 {
		t.Error("histogram total diverges from moved load")
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
}

func TestProtocolMatchesAnalyticOutcome(t *testing.T) {
	// The message-level execution and the closed-form Balancer must
	// agree on the global tuple and balancing effectiveness for the
	// same workload (exact assignments differ: RNG draws happen in a
	// different order).
	ringA, treeA := fixture(4, 160, 5)
	resA := runOneRound(t, ringA, treeA, Config{Core: core.Config{Epsilon: 0.05}})

	ringB, treeB := fixture(4, 160, 5)
	bal, err := core.NewBalancer(ringB, treeB, core.Config{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := bal.RunRound()
	if err != nil {
		t.Fatal(err)
	}

	if resA.Global != resB.Global {
		t.Errorf("global LBI differs: %+v vs %+v", resA.Global, resB.Global)
	}
	if resA.HeavyBefore != resB.HeavyBefore {
		t.Errorf("heavy-before differs: %d vs %d", resA.HeavyBefore, resB.HeavyBefore)
	}
	if resA.HeavyAfter != 0 || resB.HeavyAfter != 0 {
		t.Errorf("both should fully balance: %d vs %d", resA.HeavyAfter, resB.HeavyAfter)
	}
	// Moved load should agree closely (same classification, same
	// pairing rules; leaf-choice randomness shifts a little).
	if math.Abs(resA.MovedLoad-resB.MovedLoad) > 0.05*resB.MovedLoad {
		t.Errorf("moved load diverges: %.0f vs %.0f", resA.MovedLoad, resB.MovedLoad)
	}
}

func TestRoundDeterministic(t *testing.T) {
	run := func() *Result {
		ring, tree := fixture(5, 96, 4)
		return runOneRound(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	}
	a, b := run(), run()
	if a.MovedLoad != b.MovedLoad || len(a.Assignments) != len(b.Assignments) ||
		a.TimeVSAComplete != b.TimeVSAComplete || a.TimeVSTComplete != b.TimeVSTComplete {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Result, b.Result)
	}
}

func TestPhaseTimesOrdered(t *testing.T) {
	ring, tree := fixture(6, 128, 4)
	res := runOneRound(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if !(res.TimeLBIAggregate > 0 &&
		res.TimeLBIAggregate <= res.TimeLBIDisseminate &&
		res.TimeLBIDisseminate <= res.TimeVSAComplete &&
		res.TimeVSAComplete <= res.TimeVSTComplete) {
		t.Fatalf("phase times out of order: %d %d %d %d",
			res.TimeLBIAggregate, res.TimeLBIDisseminate,
			res.TimeVSAComplete, res.TimeVSTComplete)
	}
}

func TestMessageAccounting(t *testing.T) {
	ring, tree := fixture(7, 96, 4)
	eng := ring.Engine()
	eng.ResetMessageStats()
	res := runOneRound(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	for _, kind := range []string{MsgCollectDown, MsgReportUp, MsgDisperse, MsgVSADown, MsgVSAUp, MsgAssign, MsgTransfer} {
		if eng.MessageCount(kind) == 0 {
			t.Errorf("no %s messages", kind)
		}
	}
	// One collect down and one report up per tree edge.
	edges := int64(tree.NumNodes() - 1)
	if got := eng.MessageCount(MsgCollectDown); got != edges {
		t.Errorf("collect messages %d, want %d", got, edges)
	}
	if got := eng.MessageCount(MsgAssign); got < 2*int64(len(res.Assignments)) {
		t.Errorf("assign messages %d for %d assignments", got, len(res.Assignments))
	}
}

func TestCrashDuringLBIPhase(t *testing.T) {
	// Kill a batch of nodes immediately after the round starts: their
	// KT subtrees go silent, parents time out, and the round still
	// completes with partial data.
	ring, tree := fixture(8, 128, 4)
	eng := ring.Engine()
	rootChildren := tree.NumChildren(tree.Root())
	r, err := NewRunner(ring, tree, Config{
		Core:         core.Config{Epsilon: 0.05},
		ChildTimeout: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out *Result
	var outErr error
	if err := r.StartRound(func(res *Result, err error) { out, outErr = res, err }); err != nil {
		t.Fatal(err)
	}
	eng.ScheduleEv(1, sim.Func(func() {
		alive := ring.AliveNodes()
		for i := 0; i < 16; i++ {
			// Never kill the root's host (a dead root fails the round
			// by deadline; tested separately).
			victim := alive[len(alive)-1-i]
			if victim == tree.Host(tree.Root()).Owner {
				continue
			}
			ring.RemoveNode(victim)
		}
	}))
	eng.Run()
	if outErr != nil {
		t.Fatal(outErr)
	}
	if out == nil {
		t.Fatal("round did not complete despite timeouts")
	}
	if out.TimedOutChildren == 0 {
		t.Error("expected timed-out children after crashing 16 nodes")
	}
	// Partial data still yields a valid (if incomplete) balance pass.
	if !out.Global.Valid() {
		t.Error("global tuple should still be valid")
	}
	// The sequential walk's outcome. The crash at tick 1 lands before
	// the first root child's pull arrives (tick 2), so both phases fork
	// on the already-crashed world and add only their replays.
	checkPinned(t, out, outErr, eng,
		"global=5424.619065576759/2690/0 census=74/30/0->44/68/0 classified=104 timedOut=80 aborted=0 retries=0 ticks=6008/6032/0/12044/12052 transfers=92:7fae609ef08dafcd msgs=13232 now=12054 err=<nil>",
		10269+forkReplays(out, rootChildren, 2))
	ring.CheckInvariants()
	// After repair, a fresh round completes cleanly.
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	res2 := runOneRound(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if res2.TimedOutChildren != 0 {
		t.Errorf("post-repair round still timing out: %d", res2.TimedOutChildren)
	}
	tree.CheckInvariants()
}

func TestCrashedTransferEndpointAborts(t *testing.T) {
	// Kill nodes midway through the round (after LBI, during VSA/VST):
	// transfers to/from dead endpoints abort, everything else lands.
	ring, tree := fixture(9, 128, 4)
	eng := ring.Engine()
	r, _ := NewRunner(ring, tree, Config{
		Core:         core.Config{Epsilon: 0.05},
		ChildTimeout: 500,
	})
	var out *Result
	r.StartRound(func(res *Result, err error) {
		if err != nil {
			t.Error(err)
		}
		out = res
	})
	// LBI up+down takes ~4*height; strike during the VSA/VST window.
	eng.ScheduleEv(150, sim.Func(func() {
		alive := ring.AliveNodes()
		for i := 0; i < 24; i++ {
			victim := alive[len(alive)-1-i]
			if victim == tree.Host(tree.Root()).Owner {
				continue
			}
			ring.RemoveNode(victim)
		}
	}))
	eng.Run()
	if out == nil {
		t.Fatal("round did not complete")
	}
	t.Logf("aborted=%d timedOut=%d assignments=%d heavyAfter=%d",
		out.AbortedTransfers, out.TimedOutChildren, len(out.Assignments), out.HeavyAfter)
	// The sequential walk's outcome, event for event: the strike is
	// pending from the start, so neither phase forks. (This fixture's
	// round finishes at tick 140, before the strike.)
	checkPinned(t, out, nil, eng,
		"global=12820.597897377087/11189/0.21364739607996913 census=94/34/0->0/113/15 classified=128 timedOut=0 aborted=0 retries=0 ticks=52/72/0/132/140 transfers=281:abdf8699e466da45 msgs=26080 now=150 err=<nil>",
		23888)
	for _, a := range out.Assignments {
		if a.VS.Owner != a.To {
			t.Error("completed assignment whose VS is not at its destination")
		}
	}
	ring.CheckInvariants()
}

func TestRootDeathFailsRoundByDeadline(t *testing.T) {
	ring, tree := fixture(10, 64, 4)
	eng := ring.Engine()
	rootChildren := tree.NumChildren(tree.Root())
	r, _ := NewRunner(ring, tree, Config{
		Core:         core.Config{Epsilon: 0.05},
		ChildTimeout: 100,
	})
	completed := false
	var roundErr error
	r.StartRound(func(res *Result, err error) {
		completed = true
		roundErr = err
	})
	eng.ScheduleEv(1, sim.Func(func() {
		ring.RemoveNode(tree.Host(tree.Root()).Owner)
	}))
	eng.Run()
	if !completed {
		t.Fatal("round never resolved")
	}
	if roundErr == nil {
		t.Fatal("expected a deadline error after root death")
	}
	// The sequential walk's outcome. The LBI phase forks after the
	// crash at tick 1; the dead root never starts a VSA phase.
	checkPinned(t, nil, roundErr, eng,
		"msgs=5371 now=11200 err=protocol: round deadline exceeded (root unreachable?)",
		4268+forkReplays(nil, rootChildren, 1))
}

func TestOnlyOneActiveRound(t *testing.T) {
	ring, tree := fixture(11, 32, 3)
	r, _ := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err := r.StartRound(func(*Result, error) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.StartRound(func(*Result, error) {}); err == nil {
		t.Fatal("second concurrent round must be rejected")
	}
	ring.Engine().Run()
	// After completion a new round is allowed again.
	if err := r.StartRound(func(*Result, error) {}); err != nil {
		t.Fatalf("round after completion rejected: %v", err)
	}
	ring.Engine().Run()
}

func TestEmptyRingRejected(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	tree, _ := ktree.New(ring, 2)
	r, _ := NewRunner(ring, tree, Config{})
	if err := r.StartRound(func(*Result, error) {}); err == nil {
		t.Fatal("empty ring must be rejected")
	}
}

func TestRepeatedRoundsConverge(t *testing.T) {
	ring, tree := fixture(12, 128, 5)
	r, _ := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	var lastMoved float64
	for i := 0; i < 3; i++ {
		out, err := r.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			lastMoved = out.MovedLoad
		} else if out.MovedLoad > lastMoved/4 {
			t.Errorf("round %d still moved %.0f (first: %.0f)", i, out.MovedLoad, lastMoved)
		}
	}
}

func TestAwareRoundRoutedPublication(t *testing.T) {
	// The proximity-aware round over a transit-stub underlay: every
	// advertisement is published through a routed overlay lookup, and
	// the round still leaves no heavy node.
	g, err := topology.Generate(topology.Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   3,
		StubDomainSizeMean:    30,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.42,
		Seed:                  55,
	})
	if err != nil {
		t.Fatal(err)
	}
	lat := topology.NewDistancesMetric(g, topology.LatencyMetric)
	eng := sim.NewEngine(55)
	underlays := g.SampleStubNodes(eng.Rand(), 256)
	mu := 256.0 * 100
	ring := workload.NewRing(eng, workload.RingSpec{Nodes: 256, VSPerNode: 5,
		Loads:    workload.Gaussian{Mu: mu, Sigma: mu / 400},
		Underlay: func(i int) topology.NodeID { return underlays[i] },
		Latency:  chord.TopologyLatency(lat)})
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	lm, err := proximity.ChooseSpread(g, lat, rand.New(rand.NewSource(55)), proximity.DefaultLandmarkCount)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := proximity.NewMapper(lm, proximity.DefaultBitsPerDimension)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Mode: core.ProximityAware, Epsilon: 0.05, Mapper: mapper}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if out.HeavyBefore == 0 || out.HeavyAfter != 0 {
		t.Errorf("heavy %d -> %d, want some -> 0", out.HeavyBefore, out.HeavyAfter)
	}
	if eng.MessageCount(MsgPublish) == 0 || eng.MessageCount(chord.MsgLookupHop) == 0 {
		t.Error("aware round published nothing through the overlay")
	}
	if out.TimePublish <= out.TimeLBIDisseminate {
		t.Errorf("publish finished at %d, not after dissemination at %d", out.TimePublish, out.TimeLBIDisseminate)
	}
}
