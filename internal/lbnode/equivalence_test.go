// Cross-executor equivalence: the same ring, seed and config run
// through the closed-form reference (core.Balancer) and the
// message-level driver (internal/protocol) must produce the identical
// pair set, the bit-identical global tuple and the same final unit-load
// Gini. Both drivers draw the round's placement with core.PlaceRound
// from the same RNG state, fold LBI in child order, classify with
// core.ClassifyNode and pair by core.PairList.Rendezvous, so any
// divergence is a driver bug, not an algorithm fork. That holds at
// root-only rendezvous (RendezvousThreshold -1) and at the paper's
// default threshold, where most pairs are decided at interior
// rendezvous points, and under message loss for every round that loses
// no data. The proximity-aware mode is not compared: its publications
// land in lookup-arrival order, and the lazy leaf draws follow it.
//
// TestIntermediateRendezvousEquivalence adds order-independence at the
// default threshold: the protocol driver's lossless run against the
// same ring under seed-derived delivery jitter, which shuffles arrival
// order, duplicate suppression and ack races.
package lbnode_test

import (
	"fmt"
	"math"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/ktree"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// buildRing constructs the shared fixture: a loaded heterogeneous ring
// and its K-nary tree on a fresh engine, identical for a given seed.
func buildRing(t *testing.T, seed int64, nodes, vsPer, k int) (*chord.Ring, *ktree.Tree) {
	t.Helper()
	mu := float64(nodes) * 100
	ring := workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: vsPer,
		Loads: workload.Gaussian{Mu: mu, Sigma: mu / 400}})
	tree, err := ktree.New(ring, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	return ring, tree
}

// outcome is the executor-invariant projection of a round.
type outcome struct {
	global     core.LBI
	pairs      map[string]float64 // pair identity → transferred load
	unassigned int
	gini       float64
}

// pairKey identifies a pairing across ring instances by value: rings
// built from the same seed assign the same IDs and indices.
func pairKey(vs *chord.VServer, from, to *chord.Node) string {
	return fmt.Sprintf("%v:%d->%d", vs.ID, from.Index, to.Index)
}

func runBalancer(t *testing.T, build func() (*chord.Ring, *ktree.Tree), cfg core.Config) outcome {
	t.Helper()
	ring, tree := build()
	bal, err := core.NewBalancer(ring, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bal.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[string]float64)
	for _, a := range res.Assignments {
		pairs[pairKey(a.VS, a.From, a.To)] = a.Load
	}
	return outcome{global: res.Global, pairs: pairs, unassigned: res.UnassignedOffers, gini: core.UnitLoadGini(ring)}
}

// runProtocol drives one message-level round to completion on a fresh
// fixture from build, under plan (seeded planSeed) when it is non-nil,
// and fails the test if the round lost data.
func runProtocol(t *testing.T, build func() (*chord.Ring, *ktree.Tree), cfg core.Config, plan *faults.Plan, planSeed int64) (outcome, *protocol.Result) {
	t.Helper()
	out, res := runRound(t, build, cfg, plan, planSeed)
	// A round that lost a subtree or a handoff could match the reference
	// only by accident; no plan runProtocol is given may cause either.
	if lost(res) {
		t.Fatalf("round lost data: %d timed-out children, %d aborted transfers", res.TimedOutChildren, res.AbortedTransfers)
	}
	return out, res
}

// lost reports whether a round gave up on a child subtree or aborted a
// handoff.
func lost(res *protocol.Result) bool { return res.TimedOutChildren != 0 || res.AbortedTransfers != 0 }

// runRound is runProtocol without the lost-data check.
func runRound(t *testing.T, build func() (*chord.Ring, *ktree.Tree), cfg core.Config, plan *faults.Plan, planSeed int64) (outcome, *protocol.Result) {
	t.Helper()
	ring, tree := build()
	if plan != nil {
		in, err := faults.New(planSeed, *plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Attach(ring); err != nil {
			t.Fatal(err)
		}
	}
	r, err := protocol.NewRunner(ring, tree, protocol.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[string]float64)
	for _, a := range res.Assignments {
		pairs[pairKey(a.VS, a.From, a.To)] = a.Load
	}
	return outcome{global: res.Global, pairs: pairs, unassigned: res.UnassignedOffers, gini: core.UnitLoadGini(ring)}, res
}

// runLossless is runProtocol with nothing injected: no plan (or, with
// emptyPlan, an attached plan that must be a byte-identical
// passthrough — same events, same RNG draws, same outcome).
func runLossless(t *testing.T, build func() (*chord.Ring, *ktree.Tree), cfg core.Config, emptyPlan bool) outcome {
	t.Helper()
	var plan *faults.Plan
	if emptyPlan {
		plan = &faults.Plan{}
	}
	out, res := runProtocol(t, build, cfg, plan, 0)
	if res.Retries != 0 {
		t.Fatalf("lossless round retransmitted %d times", res.Retries)
	}
	return out
}

// comparePairs requires the bit-identical global tuple and the exact
// same pair set (same VS, same endpoints, same load) from two runs.
func comparePairs(t *testing.T, label string, ref, got outcome) {
	t.Helper()
	if got.global != ref.global {
		t.Errorf("%s: global tuple %+v, want %+v", label, got.global, ref.global)
	}
	if len(got.pairs) != len(ref.pairs) {
		t.Errorf("%s: %d pairs, want %d", label, len(got.pairs), len(ref.pairs))
	}
	// One line a differing pair, but not thousands: a wholesale
	// divergence would bury the label that reproduces it.
	const maxShown = 5
	diffs := 0
	differ := func(format string, args ...any) {
		t.Helper()
		if diffs++; diffs <= maxShown {
			t.Errorf(label+": "+format, args...)
		}
	}
	for k, load := range ref.pairs {
		if gl, ok := got.pairs[k]; !ok {
			differ("missing pair %s", k)
		} else if gl != load {
			differ("pair %s load %v, want %v", k, gl, load)
		}
	}
	for k := range got.pairs {
		if _, ok := ref.pairs[k]; !ok {
			differ("extra pair %s", k)
		}
	}
	if diffs > maxShown {
		t.Errorf("%s: %d pairs differ in all", label, diffs)
	}
	if got.unassigned != ref.unassigned {
		t.Errorf("%s: %d unassigned offers, want %d", label, got.unassigned, ref.unassigned)
	}
	// The final per-node loads are identical (same transfers applied),
	// but the runs apply them in different orders, so each node's VS
	// slice — and hence the float summation order inside TotalLoad —
	// can differ. Equality up to summation rounding is the exact claim.
	if d := math.Abs(got.gini - ref.gini); d > 1e-9 {
		t.Errorf("%s: final unit-load gini %v, want %v (Δ=%g)", label, got.gini, ref.gini, d)
	}
}

func TestCrossExecutorEquivalence(t *testing.T) {
	type tc struct {
		name         string
		seed         int64
		nodes, vsPer int
		k            int
		eps          float64
		threshold    int
	}
	cases := []tc{
		{"small-tight", 11, 96, 4, 2, 0, -1},
		{"medium", 12, 192, 5, 2, 0.05, -1},
		{"loose-slack", 13, 128, 3, 2, 0.2, -1},
	}
	// The paper's default threshold (0 → 30), where which entries pool
	// at which interior node is all placement.
	for _, k := range []int{2, 8} {
		for seed := int64(21); seed <= 32; seed++ {
			cases = append(cases, tc{fmt.Sprintf("default-K%d-seed%d", k, seed), seed, 192, 5, k, 0.05, 0})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Epsilon: tc.eps, RendezvousThreshold: tc.threshold}
			build := func() (*chord.Ring, *ktree.Tree) { return buildRing(t, tc.seed, tc.nodes, tc.vsPer, tc.k) }
			ref := runBalancer(t, build, cfg)
			if len(ref.pairs) == 0 {
				t.Fatalf("fixture too tame: reference round paired nothing")
			}
			comparePairs(t, "protocol", ref, runLossless(t, build, cfg, false))
			comparePairs(t, "protocol+empty-fault-plan", ref, runLossless(t, build, cfg, true))
		})
	}
	t.Run("drop-10pct", compareUnderLoss)
}

// compareUnderLoss holds the reference as the spec of a lossy round:
// under 10% message drop at the default threshold the protocol driver
// retransmits its way to the same pairs and the same global tuple in
// every round that lost no data. A round that timed out a child or
// aborted a handoff is skipped, but at least three seeds must compare.
func compareUnderLoss(t *testing.T) {
	cfg := core.Config{Epsilon: 0.05}
	compared := 0
	for seed := int64(31); seed <= 38; seed++ {
		build := func() (*chord.Ring, *ktree.Tree) { return buildRing(t, seed, 192, 5, 2) }
		got, res := runRound(t, build, cfg, &faults.Plan{Drop: 0.1}, seed)
		if res.Retries == 0 {
			t.Errorf("seed %d: 10%% drop caused no retransmission", seed)
		}
		if lost(res) {
			t.Logf("seed %d: skipped, %d timed-out children, %d aborted transfers", seed, res.TimedOutChildren, res.AbortedTransfers)
			continue
		}
		compared++
		comparePairs(t, fmt.Sprintf("seed %d", seed), runBalancer(t, build, cfg), got)
	}
	if compared < 3 {
		t.Fatalf("only %d of 8 lossy rounds lost no data, want at least 3", compared)
	}
}

// buildBenchRing is the exp.ScaleSweep fixture shape (bulk-added nodes,
// 5 VSs each, tight Gaussian) over a K-nary tree: at 8000 VSs and the
// default threshold nearly every transfer is decided at an interior
// rendezvous point, so which entries pool where — and in what order
// they arrived — is all that separates two runs.
func buildBenchRing(t *testing.T, seed int64, vsCount, k int) (*chord.Ring, *ktree.Tree) {
	t.Helper()
	const vsPerNode = 5
	n := vsCount / vsPerNode
	mu := float64(n) * 100
	ring := workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: n, VSPerNode: vsPerNode,
		Loads: workload.Gaussian{Mu: mu, Sigma: mu / 200}})
	tree, err := ktree.New(ring, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	return ring, tree
}

// TestIntermediateRendezvousEquivalence is the order-independence
// property of the merge and pairing rules, proved on the driver that
// makes the figures: with intermediate rendezvous enabled (threshold 0
// → the paper default of 30) the same ring is run losslessly and then
// under seed-derived jitter plans. Jitter of 40 on a unit-latency ring
// outruns every retransmission timer, so children's replies reach their
// parent in shuffled order, originals race their own retransmissions
// into the dedup window, and acks cross data — yet nothing is lost. The
// claim is exact set equality — same VSs, same endpoints, same loads —
// plus a bit-identical global tuple (LBICollect folds by child index,
// PairList.Pair sorts before pairing). K = 8 is there for the LBI half:
// most K = 2 nodes fold two replies, and a two-operand float sum
// commutes, so an arrival-order fold goes unnoticed there; even at
// K = 8 only a reordering near the root survives into the last ulp of
// the global L, and ring seed 4 is a ring on which plan seed 7 produces
// one.
func TestIntermediateRendezvousEquivalence(t *testing.T) {
	const vsCount = 8000
	cfg := core.Config{Epsilon: 0.05} // RendezvousThreshold 0 → default 30
	cases := []struct {
		k         int
		ringSeed  int64
		planSeeds []int64
	}{
		{2, 1, []int64{7, 14, 21}},
		{2, 2, []int64{7, 14, 21}},
		{8, 4, []int64{7}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("K%d-ring%d", tc.k, tc.ringSeed), func(t *testing.T) {
			t.Parallel() // each run owns its engine, ring and tree
			build := func() (*chord.Ring, *ktree.Tree) { return buildBenchRing(t, tc.ringSeed, vsCount, tc.k) }
			ref, res := runProtocol(t, build, cfg, nil, 0)
			if len(ref.pairs) == 0 || res.Retries != 0 {
				t.Fatalf("reference round paired %d, retried %d", len(ref.pairs), res.Retries)
			}
			for _, planSeed := range tc.planSeeds {
				label := fmt.Sprintf("plan seed %d", planSeed)
				got, res := runProtocol(t, build, cfg, &faults.Plan{JitterMax: 40}, planSeed)
				if res.Retries == 0 {
					t.Errorf("%s: no retransmissions — the plan reordered nothing", label)
				}
				comparePairs(t, label, ref, got)
			}
		})
	}
}

// TestEmptyFaultPlanIsPassthrough pins the stronger protocol-level
// claim: attaching an empty fault plan changes nothing at all — the
// two runs' outcomes match field for field, not just as pair sets.
func TestEmptyFaultPlanIsPassthrough(t *testing.T) {
	cfg := core.Config{Epsilon: 0.05, RendezvousThreshold: -1}
	build := func() (*chord.Ring, *ktree.Tree) { return buildRing(t, 21, 128, 4, 2) }
	plain := runLossless(t, build, cfg, false)
	faulty := runLossless(t, build, cfg, true)
	if plain.global != faulty.global || plain.unassigned != faulty.unassigned || plain.gini != faulty.gini {
		t.Fatalf("empty plan diverged: %+v vs %+v", plain, faulty)
	}
	comparePairs(t, "empty-plan", plain, faulty)
}
