package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/ktree"
	"p2plb/internal/proximity"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// buildLoadedRing creates a heterogeneous ring with Gaussian loads, the
// standard small-scale test fixture.
func buildLoadedRing(seed int64, nodes, vsPer int) (*chord.Ring, *ktree.Tree) {
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

// TestRunRoundEliminatesHeavyNodes is the paper's first shape (Figure
// 4: "all heavy nodes become light") as a property over seeds rather
// than one pinned run: at ε = 0.05 one round leaves no node heavy on
// each of sixteen 256-node × 5-VS rings, in both modes (the aware rings
// sit on a transit-stub underlay). ε = 0 keeps residual heavy nodes by
// design (DESIGN.md D2) and is not asserted here.
func TestRunRoundEliminatesHeavyNodes(t *testing.T) {
	for seed := int64(101); seed <= 116; seed++ {
		t.Run(fmt.Sprintf("ignorant/seed%d", seed), func(t *testing.T) {
			ring, tree := buildLoadedRing(seed, 256, 5)
			checkHeavyEliminated(t, ring, tree, Config{Epsilon: 0.05})
		})
		t.Run(fmt.Sprintf("aware/seed%d", seed), func(t *testing.T) {
			ring, tree, mapper := topoFixture(t, seed, 256)
			checkHeavyEliminated(t, ring, tree, Config{Mode: ProximityAware, Mapper: mapper, Epsilon: 0.05})
		})
	}
}

// checkHeavyEliminated runs one round and requires that a ring with at
// least half its nodes heavy ends it with none.
func checkHeavyEliminated(t *testing.T, ring *chord.Ring, tree *ktree.Tree, cfg Config) {
	t.Helper()
	b, err := NewBalancer(ring, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyBefore < 256/2 {
		t.Fatalf("fixture too tame: only %d/256 heavy before", res.HeavyBefore)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("%d nodes still heavy after the round (before: %d, unassigned offers: %d)",
			res.HeavyAfter, res.HeavyBefore, res.UnassignedOffers)
	}
	if res.MovedLoad <= 0 || len(res.Assignments) == 0 {
		t.Fatal("round moved nothing")
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
}

func TestRunRoundAccounting(t *testing.T) {
	ring, tree := buildLoadedRing(2, 128, 5)
	eng := ring.Engine()
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	res, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	// Histogram total must equal moved load.
	if math.Abs(res.MovedByHops.Total()-res.MovedLoad) > 1e-6 {
		t.Errorf("histogram total %v != moved load %v", res.MovedByHops.Total(), res.MovedLoad)
	}
	var sum float64
	for _, a := range res.Assignments {
		sum += a.Load
		if a.Load != a.VS.Load {
			t.Error("assignment load diverges from VS load")
		}
		if a.VS.Owner != a.To {
			t.Error("VS not transferred to its assignee")
		}
		if a.From == a.To {
			t.Error("self transfer")
		}
	}
	if math.Abs(sum-res.MovedLoad) > 1e-6 {
		t.Errorf("assignment sum %v != moved %v", sum, res.MovedLoad)
	}
	// Message accounting: every phase must have produced traffic.
	for _, kind := range []string{MsgLBIReport, MsgLBIDisperse, MsgVSAReport, MsgVSAAssign, MsgVSTTransfer} {
		if eng.MessageCount(kind) == 0 {
			t.Errorf("no %s messages counted", kind)
		}
	}
	if got := eng.MessageCount(MsgVSAAssign); got != 2*int64(len(res.Assignments)) {
		t.Errorf("assign notifications %d, want %d", got, 2*len(res.Assignments))
	}
	// Phase times must be ordered.
	if !(res.TimeLBIAggregate <= res.TimeLBIDisseminate &&
		res.TimeLBIDisseminate <= res.TimeVSAComplete &&
		res.TimeVSAComplete <= res.TimeVSTComplete) {
		t.Errorf("phase times out of order: %d %d %d %d", res.TimeLBIAggregate,
			res.TimeLBIDisseminate, res.TimeVSAComplete, res.TimeVSTComplete)
	}
}

func TestRunRoundDeterministic(t *testing.T) {
	run := func() *Result {
		ring, tree := buildLoadedRing(3, 96, 5)
		b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
		res, err := b.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MovedLoad != b.MovedLoad || len(a.Assignments) != len(b.Assignments) ||
		a.HeavyBefore != b.HeavyBefore || a.TimeVSAComplete != b.TimeVSAComplete {
		t.Fatalf("nondeterministic rounds: %+v vs %+v", a, b)
	}
	for i := range a.Assignments {
		if a.Assignments[i].VS.ID != b.Assignments[i].VS.ID ||
			a.Assignments[i].To.Index != b.Assignments[i].To.Index {
			t.Fatal("assignment sequences differ")
		}
	}
}

func TestSecondRoundMovesLess(t *testing.T) {
	ring, tree := buildLoadedRing(4, 192, 5)
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	first, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if second.MovedLoad > first.MovedLoad/5 {
		t.Errorf("second round moved %v, first %v — balance did not stick",
			second.MovedLoad, first.MovedLoad)
	}
}

func TestLoadProportionalToCapacityAfterRound(t *testing.T) {
	ring, tree := buildLoadedRing(5, 512, 5)
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	if _, err := b.RunRound(); err != nil {
		t.Fatal(err)
	}
	g := b.LoadByCapacityClass()
	classes := g.Classes()
	if len(classes) < 4 {
		t.Skip("capacity profile under-sampled")
	}
	// After balancing, mean load per class should scale roughly with
	// capacity for the mid classes (granularity limits the smallest).
	m10 := g.Mean(10)
	m100 := g.Mean(100)
	m1000 := g.Mean(1000)
	if m100 < 3*m10 || m100 > 30*m10 {
		t.Errorf("class 100 mean %v not ~10x class 10 mean %v", m100, m10)
	}
	if m1000 < 3*m100 || m1000 > 30*m100 {
		t.Errorf("class 1000 mean %v not ~10x class 100 mean %v", m1000, m100)
	}
}

func TestUnitLoadsShape(t *testing.T) {
	ring, tree := buildLoadedRing(6, 128, 5)
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	before := b.UnitLoads()
	if len(before) != 128 {
		t.Fatalf("UnitLoads returned %d entries", len(before))
	}
	if _, err := b.RunRound(); err != nil {
		t.Fatal(err)
	}
	after := b.UnitLoads()
	// Unit-load spread must shrink dramatically.
	varOf := func(xs []float64) float64 {
		var mean, ss float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return ss / float64(len(xs))
	}
	if varOf(after) > varOf(before)/4 {
		t.Errorf("unit-load variance only dropped from %v to %v", varOf(before), varOf(after))
	}
}

func TestUnitLoadGini(t *testing.T) {
	ring := chord.NewRing(sim.NewEngine(1), chord.Config{})
	a, _ := ring.AddNodeWithIDs(-1, 10, []ident.ID{100})
	b, _ := ring.AddNodeWithIDs(-1, 10, []ident.ID{200})
	a.VServers()[0].Load = 10
	b.VServers()[0].Load = 10
	if g := UnitLoadGini(ring); g != 0 {
		t.Fatalf("equal loads should give Gini 0, got %v", g)
	}
	b.VServers()[0].Load = 0
	if g := UnitLoadGini(ring); g <= 0.4 {
		t.Fatalf("concentrated load should give high Gini, got %v", g)
	}
	// A departed node is outside the metric, not a zero inside it.
	ring.RemoveNode(b)
	if g := UnitLoadGini(ring); g != 0 {
		t.Fatalf("one alive node should give Gini 0, got %v", g)
	}
}

// topoFixture builds a ring embedded in a transit-stub underlay with a
// proximity mapper, shared by the aware/ignorant comparisons.
func topoFixture(t *testing.T, seed int64, nodes int) (*chord.Ring, *ktree.Tree, *proximity.Mapper) {
	t.Helper()
	g, err := topology.Generate(topology.Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   3,
		StubDomainSizeMean:    45,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.42,
		Seed:                  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := topology.NewDistances(g)
	eng := sim.NewEngine(seed)
	underlays := g.SampleStubNodes(eng.Rand(), nodes)
	mu := float64(nodes) * 100
	ring := workload.NewRing(eng, workload.RingSpec{Nodes: nodes, VSPerNode: 5,
		Loads:    workload.Gaussian{Mu: mu, Sigma: mu / 400},
		Underlay: func(i int) topology.NodeID { return underlays[i] },
		Latency:  chord.TopologyLatency(dist)})
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	lm, err := proximity.ChooseSpread(g, dist, rand.New(rand.NewSource(seed)), proximity.DefaultLandmarkCount)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := proximity.NewMapper(lm, proximity.DefaultBitsPerDimension)
	if err != nil {
		t.Fatal(err)
	}
	return ring, tree, mapper
}

func meanHops(res *Result) float64 {
	if len(res.Assignments) == 0 {
		return 0
	}
	var w, hw float64
	for _, a := range res.Assignments {
		w += a.Load
		hw += a.Load * float64(a.Hops)
	}
	return hw / w
}

func TestAwareMovesLoadCloserThanIgnorant(t *testing.T) {
	ring1, tree1, mapper := topoFixture(t, 10, 384)
	aware, _ := NewBalancer(ring1, tree1, Config{
		Mode: ProximityAware, Mapper: mapper, Epsilon: 0.05,
	})
	resAware, err := aware.RunRound()
	if err != nil {
		t.Fatal(err)
	}

	ring2, tree2, _ := topoFixture(t, 10, 384)
	ignorant, _ := NewBalancer(ring2, tree2, Config{Epsilon: 0.05})
	resIgnorant, err := ignorant.RunRound()
	if err != nil {
		t.Fatal(err)
	}

	if resAware.HeavyAfter != 0 || resIgnorant.HeavyAfter != 0 {
		t.Errorf("rounds left heavy nodes: aware %d, ignorant %d",
			resAware.HeavyAfter, resIgnorant.HeavyAfter)
	}
	ha, hi := meanHops(resAware), meanHops(resIgnorant)
	t.Logf("mean hops: aware %.2f ignorant %.2f; within-2: aware %.2f ignorant %.2f; within-10: aware %.2f ignorant %.2f",
		ha, hi,
		resAware.MovedByHops.FractionWithin(2), resIgnorant.MovedByHops.FractionWithin(2),
		resAware.MovedByHops.FractionWithin(10), resIgnorant.MovedByHops.FractionWithin(10))
	// At this small scale many domains lack local light capacity, so the
	// mean gap is modest; the full-scale experiment reproduces the
	// paper's figures. Require a clear ordering here.
	if ha >= hi*0.85 {
		t.Errorf("aware mean transfer distance %.2f not clearly below ignorant %.2f", ha, hi)
	}
	// The aware CDF at small distances must dominate the ignorant one.
	fa := resAware.MovedByHops.FractionWithin(4)
	fi := resIgnorant.MovedByHops.FractionWithin(4)
	if fa < 2*fi {
		t.Errorf("aware moved %.0f%% within 4 units vs ignorant %.0f%% — too close",
			fa*100, fi*100)
	}
	if resAware.TimePublish <= resAware.TimeLBIDisseminate {
		t.Error("aware mode should spend time publishing")
	}
	if ring1.Engine().MessageCount(MsgVSAPublish) == 0 {
		t.Error("aware mode must publish VSA info")
	}
	if ring2.Engine().MessageCount(MsgVSAPublish) != 0 {
		t.Error("ignorant mode must not publish")
	}
}

func TestVSACompletionScalesWithTreeHeight(t *testing.T) {
	times := map[int]sim.Time{}
	heights := map[int]int{}
	for _, n := range []int{64, 512} {
		ring, tree := buildLoadedRing(11, n, 5)
		b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
		res, err := b.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		times[n] = res.TimeVSAComplete
		heights[n] = res.TreeHeight
	}
	// An 8x node increase should grow VSA time roughly like the tree
	// height (logarithmic), not linearly.
	ratio := float64(times[512]) / float64(times[64])
	if ratio > 3 {
		t.Errorf("VSA time grew %.1fx for 8x nodes (heights %d -> %d) — not logarithmic",
			ratio, heights[64], heights[512])
	}
}

func TestRootOnlyRendezvousStillBalances(t *testing.T) {
	ring, tree := buildLoadedRing(12, 128, 5)
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05, RendezvousThreshold: -1})
	res, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("root-only rendezvous left %d heavy", res.HeavyAfter)
	}
	for _, a := range res.Assignments {
		if a.Depth != 0 {
			t.Fatal("with threshold<0 all pairings must happen at the root")
		}
	}
}

func TestLowThresholdPairsDeepInTree(t *testing.T) {
	ring, tree := buildLoadedRing(13, 256, 5)
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05, RendezvousThreshold: 2})
	res, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, a := range res.Assignments {
		if a.Depth > 0 {
			deep++
		}
	}
	if deep == 0 {
		t.Error("threshold 2 should produce sub-root rendezvous pairings")
	}
}

func TestRunRandomMatchingBaseline(t *testing.T) {
	ring, tree := buildLoadedRing(14, 128, 5)
	b, _ := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	res, err := b.RunRandomMatching()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("random matching left %d heavy nodes", res.HeavyAfter)
	}
	if res.MovedLoad <= 0 {
		t.Fatal("random matching moved nothing")
	}
	ring.CheckInvariants()
}

func TestCFSSheddingThrashes(t *testing.T) {
	ring, _ := buildLoadedRing(15, 192, 5)
	out, err := RunCFSShedding(ring, 0.05, 50)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shed == 0 {
		t.Fatal("CFS shedding removed nothing")
	}
	if out.ThrashEvents == 0 {
		t.Error("expected load thrashing (shed regions overloading successors)")
	}
	ring.CheckInvariants()
	t.Logf("CFS: rounds=%d shed=%d thrash=%d converged=%v heavyAtEnd=%d",
		out.Rounds, out.Shed, out.ThrashEvents, out.Converged, out.HeavyAtEnd)
}

func TestCFSSheddingErrors(t *testing.T) {
	empty := chord.NewRing(sim.NewEngine(1), chord.Config{})
	if _, err := RunCFSShedding(empty, 0.1, 5); err == nil {
		t.Error("empty ring should fail")
	}
	ring, _ := buildLoadedRing(16, 16, 3)
	if _, err := RunCFSShedding(ring, -1, 5); err == nil {
		t.Error("negative epsilon should fail")
	}
}

func TestNewBalancerErrors(t *testing.T) {
	ring, tree := buildLoadedRing(17, 8, 2)
	otherRing, _ := buildLoadedRing(18, 8, 2)
	if _, err := NewBalancer(otherRing, tree, Config{}); err == nil {
		t.Error("mismatched ring/tree should fail")
	}
	if _, err := NewBalancer(ring, tree, Config{Epsilon: -1}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestRunRoundEmptyRing(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	tree, _ := ktree.New(ring, 2)
	b, _ := NewBalancer(ring, tree, Config{})
	if _, err := b.RunRound(); err == nil {
		t.Fatal("empty ring round should fail")
	}
}

func TestClassifyRules(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	// Three nodes, capacity 10 each; total load 30 → fair share 10.
	nodes := make([]*chord.Node, 3)
	var err error
	ids := [][]uint32{{100, 200}, {1000, 2000}, {30000, 40000}}
	loads := [][]float64{{14, 4}, {5, 5}, {1, 1}} // 18 heavy, 10 neutral-ish, 2 light
	for i := range nodes {
		nodes[i], err = ring.AddNodeWithIDs(-1, 10, []ident.ID{ident.ID(ids[i][0]), ident.ID(ids[i][1])})
		if err != nil {
			t.Fatal(err)
		}
		for j, vs := range nodes[i].VServers() {
			vs.Load = loads[i][j]
		}
	}
	tree, _ := ktree.New(ring, 2)
	tree.Build()
	global := centralLBI(ring)
	if global.L != 30 || global.C != 30 || global.Lmin != 1 {
		t.Fatalf("global = %+v", global)
	}
	st0 := ClassifyNode(nodes[0], global, 0, SubsetAuto)
	if st0.Class != Heavy || len(st0.Offers) == 0 {
		t.Fatalf("node0 = %+v", st0)
	}
	// Minimal shed: excess = 8; subset {14} overshoots less than {14,4};
	// {4} is infeasible → want {14}? No: minimize sum >= 8 → {14} sum 14
	// vs {4} sum 4 < 8 infeasible → {14}.
	if subsetLoad(st0.Offers) != 14 {
		t.Errorf("node0 sheds %v, want 14", subsetLoad(st0.Offers))
	}
	st1 := ClassifyNode(nodes[1], global, 0, SubsetAuto)
	if st1.Class != Neutral {
		t.Errorf("node1 = %v, want neutral (gap 0 < Lmin)", st1.Class)
	}
	st2 := ClassifyNode(nodes[2], global, 0, SubsetAuto)
	if st2.Class != Light || st2.Deficit != 8 {
		t.Errorf("node2 = %+v, want light with deficit 8", st2)
	}
}

// TestRunRoundAfterUnrepairedJoins is the regression test for a round
// over a tree nobody repaired after nodes joined: the joiners' virtual
// servers have no KT leaves yet, and drawing a reporting leaf among
// none panicked. A round starts by repairing the tree, so the joiners
// are planted and report like everyone else.
func TestRunRoundAfterUnrepairedJoins(t *testing.T) {
	ring, tree := buildLoadedRing(1, 64, 4)
	b, err := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunRound(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		workload.Join(ring, -1, 4, nil)
	}
	res, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if total := res.HeavyBefore + res.LightBefore + res.NeutralBefore; total != 72 {
		t.Errorf("census covers %d nodes, want all 72", total)
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
}

// BenchmarkRunRound is one closed-form round on a fresh 2,560-node ×
// 5-VS ring (12,800 virtual servers); the ring is rebuilt outside the
// timer, so ns/op and allocs/op are the round's alone.
func BenchmarkRunRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ring, tree := buildLoadedRing(1, 2560, 5)
		bal, err := NewBalancer(ring, tree, Config{Epsilon: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := bal.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}
