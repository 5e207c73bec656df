// Benchmarks regenerating every figure in the paper's evaluation (§5)
// plus ablations over the design choices called out in DESIGN.md.
// Each Fig* benchmark runs the same experiment driver as cmd/lbsim and
// reports the figure's headline quantities as custom benchmark metrics,
// so `go test -bench .` both times the system and re-derives the
// results. See EXPERIMENTS.md for paper-vs-measured values.
package p2plb

import (
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/exp"
	"p2plb/internal/ktree"
	"p2plb/internal/objects"
	"p2plb/internal/protocol"
	"p2plb/internal/rao"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// runRound builds the setup and runs one load-balancing round.
func runRound(b *testing.B, s exp.Setup) *core.Result {
	b.Helper()
	inst, err := exp.Build(s)
	if err != nil {
		b.Fatal(err)
	}
	res, err := inst.Balancer.RunRound()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig4UnitLoadGaussian regenerates Figure 4: one full
// load-balancing round at paper scale (4096 nodes × 5 VSs, Gaussian
// loads, Gnutella capacities). Reported metrics: fraction of nodes
// heavy before the round, heavy nodes remaining after, and the share of
// total load moved.
func BenchmarkFig4UnitLoadGaussian(b *testing.B) {
	var heavyBefore, heavyAfter, movedFrac float64
	for i := 0; i < b.N; i++ {
		res := runRound(b, exp.DefaultSetup(int64(i)+1))
		total := float64(res.HeavyBefore + res.LightBefore + res.NeutralBefore)
		heavyBefore += float64(res.HeavyBefore) / total
		heavyAfter += float64(res.HeavyAfter)
		movedFrac += res.MovedLoad / res.Global.L
	}
	n := float64(b.N)
	b.ReportMetric(heavyBefore/n, "heavyBeforeFrac")
	b.ReportMetric(heavyAfter/n, "heavyAfter")
	b.ReportMetric(movedFrac/n, "movedLoadFrac")
}

// benchLoadByCapacity regenerates Figures 5/6: the unit-load ratio
// between the capacity-1000 and capacity-10 classes after balancing.
// Aligned skews put it near 1; virtual-server granularity keeps the
// small class somewhat below the common band, so ~1-2 is the healthy
// range (the unbalanced ratio is ~0.01).
func benchLoadByCapacity(b *testing.B, pareto bool) {
	var unitRatio, heavyAfter float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.Pareto = pareto
		inst, err := exp.Build(s)
		if err != nil {
			b.Fatal(err)
		}
		res, err := inst.Balancer.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		after := inst.Balancer.LoadByCapacityClass()
		unitRatio += (after.Mean(1000) / 1000) / (after.Mean(10) / 10)
		heavyAfter += float64(res.HeavyAfter)
	}
	n := float64(b.N)
	b.ReportMetric(unitRatio/n, "unitLoad1000v10")
	b.ReportMetric(heavyAfter/n, "heavyAfter")
}

// BenchmarkFig5LoadByCapacityGaussian regenerates Figure 5.
func BenchmarkFig5LoadByCapacityGaussian(b *testing.B) { benchLoadByCapacity(b, false) }

// BenchmarkFig6LoadByCapacityPareto regenerates Figure 6.
func BenchmarkFig6LoadByCapacityPareto(b *testing.B) { benchLoadByCapacity(b, true) }

// benchMovedLoad regenerates one mode of Figures 7/8 on one topology
// instance per iteration, reporting the moved-load CDF milestones.
func benchMovedLoad(b *testing.B, topo func(int64) topology.Params, mode core.Mode) {
	var within2, within10, meanDist float64
	for i := 0; i < b.N; i++ {
		p := topo(int64(i) + 1)
		s := exp.DefaultSetup(int64(i) + 1)
		s.Topology = &p
		s.Mode = mode
		res := runRound(b, s)
		within2 += res.MovedByHops.FractionWithin(2)
		within10 += res.MovedByHops.FractionWithin(10)
		var w, hw float64
		for _, a := range res.Assignments {
			w += a.Load
			hw += a.Load * float64(a.Hops)
		}
		if w > 0 {
			meanDist += hw / w
		}
	}
	n := float64(b.N)
	b.ReportMetric(within2/n, "movedWithin2")
	b.ReportMetric(within10/n, "movedWithin10")
	b.ReportMetric(meanDist/n, "meanDistance")
}

// BenchmarkFig7TS5kLargeAware regenerates the proximity-aware series of
// Figure 7 (paper: ~67% of moved load within 2 hops, ~86% within 10).
func BenchmarkFig7TS5kLargeAware(b *testing.B) {
	benchMovedLoad(b, topology.TS5kLarge, core.ProximityAware)
}

// BenchmarkFig7TS5kLargeIgnorant regenerates the proximity-ignorant
// series of Figure 7 (paper: ~13% within 10 hops).
func BenchmarkFig7TS5kLargeIgnorant(b *testing.B) {
	benchMovedLoad(b, topology.TS5kLarge, core.ProximityIgnorant)
}

// BenchmarkFig8TS5kSmallAware regenerates the proximity-aware series of
// Figure 8.
func BenchmarkFig8TS5kSmallAware(b *testing.B) {
	benchMovedLoad(b, topology.TS5kSmall, core.ProximityAware)
}

// BenchmarkFig8TS5kSmallIgnorant regenerates the proximity-ignorant
// series of Figure 8.
func BenchmarkFig8TS5kSmallIgnorant(b *testing.B) {
	benchMovedLoad(b, topology.TS5kSmall, core.ProximityIgnorant)
}

// benchVSATime checks §5.2's O(log_K N) claim: VSA completion time in
// simulated latency units for a given tree degree.
func benchVSATime(b *testing.B, k int) {
	var vsaDone, height float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.K = k
		res := runRound(b, s)
		vsaDone += float64(res.TimeVSAComplete)
		height += float64(res.TreeHeight)
	}
	n := float64(b.N)
	b.ReportMetric(vsaDone/n, "vsaTimeUnits")
	b.ReportMetric(height/n, "treeHeight")
}

// BenchmarkVSATimeK2 measures VSA completion with the paper's K=2 tree.
func BenchmarkVSATimeK2(b *testing.B) { benchVSATime(b, 2) }

// BenchmarkVSATimeK8 measures VSA completion with K=8 ("we observed
// similar results on the degree of 8").
func BenchmarkVSATimeK8(b *testing.B) { benchVSATime(b, 8) }

// --- Ablations -----------------------------------------------------

// benchSubset isolates the heavy-node shed-subset strategy: the metric
// is the total load moved (exact should move no more than greedy).
func benchSubset(b *testing.B, strat core.SubsetStrategy) {
	var moved float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.Nodes = 1024
		inst, err := exp.Build(s)
		if err != nil {
			b.Fatal(err)
		}
		cfg := inst.Balancer.Config()
		cfg.Subset = strat
		bal, err := core.NewBalancer(inst.Ring, inst.Tree, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := bal.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		moved += res.MovedLoad / res.Global.L
	}
	b.ReportMetric(moved/float64(b.N), "movedLoadFrac")
}

// BenchmarkAblationSubsetExact uses exact (optimal) subset selection.
func BenchmarkAblationSubsetExact(b *testing.B) { benchSubset(b, core.SubsetExact) }

// BenchmarkAblationSubsetGreedy uses the greedy heuristic.
func BenchmarkAblationSubsetGreedy(b *testing.B) { benchSubset(b, core.SubsetGreedy) }

// benchThreshold isolates the rendezvous threshold: how deep in the
// tree pairings happen and how long VSA takes.
func benchThreshold(b *testing.B, threshold int) {
	var vsaDone, subRootFrac float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.Nodes = 1024
		s.RendezvousThreshold = threshold
		res := runRound(b, s)
		vsaDone += float64(res.TimeVSAComplete)
		deep := 0
		for _, a := range res.Assignments {
			if a.Depth > 0 {
				deep++
			}
		}
		if len(res.Assignments) > 0 {
			subRootFrac += float64(deep) / float64(len(res.Assignments))
		}
	}
	n := float64(b.N)
	b.ReportMetric(vsaDone/n, "vsaTimeUnits")
	b.ReportMetric(subRootFrac/n, "subRootPairFrac")
}

// BenchmarkAblationThreshold2 pairs as soon as two entries meet.
func BenchmarkAblationThreshold2(b *testing.B) { benchThreshold(b, 2) }

// BenchmarkAblationThreshold30 is the paper's suggested threshold.
func BenchmarkAblationThreshold30(b *testing.B) { benchThreshold(b, 30) }

// BenchmarkAblationThresholdRootOnly defers all pairing to the root.
func BenchmarkAblationThresholdRootOnly(b *testing.B) { benchThreshold(b, -1) }

// benchGrid isolates the landmark-space grid: equal-size cells (the
// paper's literal construction) versus quantile cells, at the default
// 4 bits per dimension.
func benchGrid(b *testing.B, quantile bool) {
	var within2 float64
	for i := 0; i < b.N; i++ {
		p := topology.TS5kLarge(int64(i) + 1)
		s := exp.DefaultSetup(int64(i) + 1)
		s.Topology = &p
		s.Mode = core.ProximityAware
		s.QuantileGrid = quantile
		res := runRound(b, s)
		within2 += res.MovedByHops.FractionWithin(2)
	}
	b.ReportMetric(within2/float64(b.N), "movedWithin2")
}

// BenchmarkAblationGridEqualSize is the default equal-size grid.
func BenchmarkAblationGridEqualSize(b *testing.B) { benchGrid(b, false) }

// BenchmarkAblationGridQuantile places cell edges at distance quantiles.
func BenchmarkAblationGridQuantile(b *testing.B) { benchGrid(b, true) }

// benchBits isolates the grid resolution (bits per landmark dimension).
func benchBits(b *testing.B, bits int) {
	var within2 float64
	for i := 0; i < b.N; i++ {
		p := topology.TS5kLarge(int64(i) + 1)
		s := exp.DefaultSetup(int64(i) + 1)
		s.Topology = &p
		s.Mode = core.ProximityAware
		s.HilbertBits = bits
		res := runRound(b, s)
		within2 += res.MovedByHops.FractionWithin(2)
	}
	b.ReportMetric(within2/float64(b.N), "movedWithin2")
}

// BenchmarkAblationHilbertBits2 uses 2 bits per dimension (2^30 cells).
func BenchmarkAblationHilbertBits2(b *testing.B) { benchBits(b, 2) }

// BenchmarkAblationHilbertBits4 uses 4 bits per dimension (2^60 cells).
func BenchmarkAblationHilbertBits4(b *testing.B) { benchBits(b, 4) }

// --- Baselines -----------------------------------------------------

// BenchmarkBaselineRandomMatching is the directory-style baseline:
// heavy-to-light pairing with no proximity or identifier-space
// structure. Compare its meanDistance with Fig7's aware value.
func BenchmarkBaselineRandomMatching(b *testing.B) {
	var meanDist, heavyAfter float64
	for i := 0; i < b.N; i++ {
		p := topology.TS5kLarge(int64(i) + 1)
		s := exp.DefaultSetup(int64(i) + 1)
		s.Topology = &p
		inst, err := exp.Build(s)
		if err != nil {
			b.Fatal(err)
		}
		res, err := inst.Balancer.RunRandomMatching()
		if err != nil {
			b.Fatal(err)
		}
		var w, hw float64
		for _, a := range res.Assignments {
			w += a.Load
			hw += a.Load * float64(a.Hops)
		}
		if w > 0 {
			meanDist += hw / w
		}
		heavyAfter += float64(res.HeavyAfter)
	}
	n := float64(b.N)
	b.ReportMetric(meanDist/n, "meanDistance")
	b.ReportMetric(heavyAfter/n, "heavyAfter")
}

// BenchmarkBaselineCFSShedding is the CFS-style baseline: overloaded
// nodes delete virtual servers. Metrics: thrash events (nodes made
// heavy by shed regions) and residual heavy nodes.
func BenchmarkBaselineCFSShedding(b *testing.B) {
	var thrash, heavyAtEnd float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.Nodes = 1024
		inst, err := exp.Build(s)
		if err != nil {
			b.Fatal(err)
		}
		out, err := core.RunCFSShedding(inst.Ring, 0.05, 50)
		if err != nil {
			b.Fatal(err)
		}
		thrash += float64(out.ThrashEvents)
		heavyAtEnd += float64(out.HeavyAtEnd)
	}
	n := float64(b.N)
	b.ReportMetric(thrash/n, "thrashEvents")
	b.ReportMetric(heavyAtEnd/n, "heavyAtEnd")
}

// --- Extended subsystems --------------------------------------------

// BenchmarkProtocolRound runs the fully message-level round (explicit
// converge-casts, routed publications, timed transfers) at 1024 nodes,
// reporting the same balancing metrics as the closed-form benchmarks
// plus the event count.
func BenchmarkProtocolRound(b *testing.B) {
	var heavyAfter, events float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.Nodes = 1024
		inst, err := exp.Build(s)
		if err != nil {
			b.Fatal(err)
		}
		r, err := protocol.NewRunner(inst.Ring, inst.Tree, protocol.Config{
			Core: core.Config{Epsilon: 0.05},
		})
		if err != nil {
			b.Fatal(err)
		}
		before := inst.Engine.Executed()
		res, err := r.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		heavyAfter += float64(res.HeavyAfter)
		events += float64(inst.Engine.Executed() - before)
	}
	n := float64(b.N)
	b.ReportMetric(heavyAfter/n, "heavyAfter")
	b.ReportMetric(events/n, "events")
}

// benchRao runs one Rao et al. scheme to convergence (or the round cap)
// at 1024 nodes and reports rounds and residual heavy nodes.
func benchRao(b *testing.B, scheme rao.Scheme) {
	var rounds, heavyEnd float64
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSetup(int64(i) + 1)
		s.Nodes = 1024
		inst, err := exp.Build(s)
		if err != nil {
			b.Fatal(err)
		}
		res, err := rao.Run(inst.Ring, rao.Config{Scheme: scheme, Epsilon: 0.05}, 50)
		if err != nil {
			b.Fatal(err)
		}
		rounds += float64(res.Rounds)
		heavyEnd += float64(res.HeavyEnd)
	}
	n := float64(b.N)
	b.ReportMetric(rounds/n, "rounds")
	b.ReportMetric(heavyEnd/n, "heavyEnd")
}

// BenchmarkBaselineRaoOneToOne: random probing (IPTPS'03 scheme 1).
func BenchmarkBaselineRaoOneToOne(b *testing.B) { benchRao(b, rao.OneToOne) }

// BenchmarkBaselineRaoOneToMany: directory shedding (scheme 2).
func BenchmarkBaselineRaoOneToMany(b *testing.B) { benchRao(b, rao.OneToMany) }

// BenchmarkBaselineRaoManyToMany: global matching (scheme 3).
func BenchmarkBaselineRaoManyToMany(b *testing.B) { benchRao(b, rao.ManyToMany) }

// --- Ring maintenance scaling ---------------------------------------

// buildBulkRing populates a fresh ring the way exp.Build does: bulk
// insertion with Gnutella capacities drawn from the engine RNG.
func buildBulkRing(seed int64, nodes, vsPerNode int) *chord.Ring {
	return workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: vsPerNode})
}

// BenchmarkRingBuild100k pins the cost of populating a 100 000-VS ring
// (20 000 nodes × 5 VSs each) with the bulk path exp.Build uses.
func BenchmarkRingBuild100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ring := buildBulkRing(int64(i)+1, 20_000, 5); ring.NumVServers() != 100_000 {
			b.Fatalf("built %d VSs", ring.NumVServers())
		}
	}
}

// BenchmarkRingBuild200k is the acceptance benchmark for the O(log n)
// ring-maintenance work: the seed implementation (eager ringPos suffix
// rewrites on every insert) took ~42 s to populate 200 000 VSs; the
// bulk path must stay at least 10× under that (it lands near 150 ms).
func BenchmarkRingBuild200k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ring := buildBulkRing(int64(i)+1, 40_000, 5); ring.NumVServers() != 200_000 {
			b.Fatalf("built %d VSs", ring.NumVServers())
		}
	}
}

// TestRingBuildSubQuadratic is the regression guard against the old
// quadratic population: 4× the virtual servers (25k → 100k) must cost
// well under the 16× a quadratic build would take. n log n predicts
// ~4.7×; the bound of 12 leaves room for timer noise while still
// failing instantly if the suffix rewrite ever comes back.
func TestRingBuildSubQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based test")
	}
	small := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildBulkRing(int64(i)+1, 5_000, 5)
		}
	})
	large := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildBulkRing(int64(i)+1, 20_000, 5)
		}
	})
	ratio := float64(large.NsPerOp()) / float64(small.NsPerOp())
	if ratio > 12 {
		t.Errorf("100k/25k VS build cost ratio = %.1f (small %v, large %v); quadratic maintenance is back",
			ratio, small.NsPerOp(), large.NsPerOp())
	}
}

// BenchmarkDriftMaintenance runs periodic rounds (protocol.Every) over
// an object-backed drifting workload (10% churn per round, 8 rounds)
// and reports the steady-state imbalance containment.
func BenchmarkDriftMaintenance(b *testing.B) {
	var giniPre, giniPost float64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i) + 1)
		ring := workload.NewRing(eng, workload.RingSpec{Nodes: 512, VSPerNode: 5})
		store := objects.NewStore(ring)
		rng := rand.New(rand.NewSource(int64(i) + 1))
		loadFn := func(r *rand.Rand) float64 { return r.Float64() * 2 }
		if err := store.Populate(rng, 100_000, loadFn); err != nil {
			b.Fatal(err)
		}
		tree, err := ktree.New(ring, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.Build(); err != nil {
			b.Fatal(err)
		}
		runner, err := protocol.NewRunner(ring, tree, protocol.Config{Core: core.Config{Epsilon: 0.05}})
		if err != nil {
			b.Fatal(err)
		}
		var before, sumPre, sumPost float64
		ok := 0
		drift := func() bool {
			if err := store.Drift(rng, 10_000, loadFn); err != nil {
				b.Fatal(err)
			}
			before = core.UnitLoadGini(ring)
			return true
		}
		stop := protocol.Every(eng, 5000, runner.StartRound, drift, func(_ *protocol.Result, err error) {
			if err != nil {
				b.Fatalf("round failed: %v", err)
			}
			ok++
			sumPre += before
			sumPost += core.UnitLoadGini(ring)
		})
		eng.RunUntil(40_000)
		stop()
		eng.Run()
		giniPre += sumPre / float64(ok)
		giniPost += sumPost / float64(ok)
	}
	n := float64(b.N)
	b.ReportMetric(giniPre/n, "meanGiniPre")
	b.ReportMetric(giniPost/n, "meanGiniPost")
}
