package protocol

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/ident"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// fingerprint is outcome plus the engine's executed-event count, which
// tells the sequential walk from a forked run with the same outcome.
func fingerprint(res *Result, err error, eng *sim.Engine) string {
	return fmt.Sprintf("%s events=%d", outcome(res, err, eng), eng.Executed())
}

// outcome renders everything a round leaves behind that the fork
// decision could move: the global tuple, the census, the failure
// counters, the phase ticks, the ordered transfer list (hashed), the
// engine's message total and clock, and the round's error.
func outcome(res *Result, err error, eng *sim.Engine) string {
	tail := fmt.Sprintf("msgs=%d now=%d err=%v", eng.TotalMessages(), eng.Now(), err)
	if res == nil {
		return tail
	}
	h := fnv.New64a()
	for _, a := range res.Assignments {
		fmt.Fprintf(h, "%v:%d->%d:%x:%d:%d;", a.VS.ID, a.From.Index, a.To.Index, math.Float64bits(a.Load), a.Hops, a.AssignedAt)
	}
	return fmt.Sprintf("global=%v/%v/%v census=%d/%d/%d->%d/%d/%d classified=%d timedOut=%d aborted=%d retries=%d ticks=%d/%d/%d/%d/%d transfers=%d:%016x %s",
		res.Global.L, res.Global.C, res.Global.Lmin,
		res.HeavyBefore, res.LightBefore, res.NeutralBefore, res.HeavyAfter, res.LightAfter, res.NeutralAfter,
		res.NodesClassified, res.TimedOutChildren, res.AbortedTransfers, res.Retries,
		res.TimeLBIAggregate, res.TimeLBIDisseminate, res.TimePublish, res.TimeVSAComplete, res.TimeVSTComplete,
		len(res.Assignments), h.Sum64(), tail)
}

// forkReplays is how many events a forked run adds to the sequential
// walk: per forked phase one replayed reply per root child, plus one
// replayed emission per pairing made below the root.
func forkReplays(res *Result, rootChildren, phases int) uint64 {
	n := phases * rootChildren
	if res != nil {
		for _, a := range res.Assignments {
			if a.Depth > 0 {
				n++
			}
		}
	}
	return uint64(n)
}

// crashLast removes the n highest-indexed alive nodes, sparing the
// root's host.
func crashLast(ring *chord.Ring, tree *ktree.Tree, n int) {
	alive := ring.AliveNodes()
	for i := 0; i < n; i++ {
		if victim := alive[len(alive)-1-i]; victim != tree.Host(tree.Root()).Owner {
			ring.RemoveNode(victim)
		}
	}
}

// sequentially runs f with forking disabled: the reference walk.
func sequentially(f func()) {
	neverFork = true
	defer func() { neverFork = false }()
	f()
}

// blockMapper is a proximity-aware key mapper for unit-latency rings:
// nodes fall into cells of 16 consecutive underlay positions, and each
// cell publishes under its own key.
type blockMapper struct{}

func (blockMapper) Key(n topology.NodeID) ident.ID { return ident.ID(uint32(n/16) * 0x9E3779B9) }

// forkFixture is a bulk-built loaded ring and K-nary tree whose nodes
// sit at distinct underlay positions (for blockMapper).
func forkFixture(seed int64, nodes, k int) (*chord.Ring, *ktree.Tree) {
	mu := float64(nodes) * 100
	ring := workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: 5,
		Loads:    workload.Gaussian{Mu: mu, Sigma: mu / 200},
		Underlay: func(i int) topology.NodeID { return topology.NodeID(i) }})
	tree, err := ktree.New(ring, k)
	if err != nil {
		panic(err)
	}
	if err := tree.Build(); err != nil {
		panic(err)
	}
	return ring, tree
}

// hostedOrder renders every node's virtual-server list in order.
func hostedOrder(ring *chord.Ring) string {
	h := fnv.New64a()
	for _, n := range ring.Nodes() {
		for _, vs := range n.VServers() {
			fmt.Fprintf(h, "%v,", vs.ID)
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestParallelSubtreesEquivalence is the proof of the forked path: on
// identical fixtures, a forked round and the sequential walk leave the
// same world — global tuple, census, phase ticks, per-kind message
// tallies, the transfer list in order, and every node's VS order —
// and the forked engine executes exactly one extra event per root
// child per phase (the replayed reply) plus one per pairing made below
// the root (the replayed emission).
func TestParallelSubtreesEquivalence(t *testing.T) {
	sizes := []int{512, 6400}
	if testing.Short() || raceEnabled {
		sizes = sizes[:1]
	}
	for _, nodes := range sizes {
		for _, k := range []int{2, 8} {
			for _, threshold := range []int{0, -1} {
				for _, mode := range []core.Mode{core.ProximityIgnorant, core.ProximityAware} {
					name := fmt.Sprintf("n%d-K%d-threshold%d-%v", nodes, k, threshold, mode)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Core: core.Config{Epsilon: 0.05, RendezvousThreshold: threshold, Mode: mode}}
						if mode == core.ProximityAware {
							cfg.Core.Mapper = blockMapper{}
						}
						ringS, treeS := forkFixture(3, nodes, k)
						rootChildren := treeS.NumChildren(treeS.Root())
						var seq *Result
						sequentially(func() { seq = runOneRound(t, ringS, treeS, cfg) })
						ringF, treeF := forkFixture(3, nodes, k)
						forked := runOneRound(t, ringF, treeF, cfg)
						compareRounds(t, seq, forked, ringS, ringF)

						extra := forkReplays(seq, rootChildren, 2)
						if s, f := ringS.Engine().Executed(), ringF.Engine().Executed(); f != s+extra {
							t.Errorf("forked executed %d events, want sequential %d + %d replays", f, s, extra)
						}
						if seq.TimedOutChildren != 0 || seq.Retries != 0 || len(seq.Assignments) == 0 {
							t.Fatalf("fixture not a clean balancing round: %d timed out, %d retries, %d transfers",
								seq.TimedOutChildren, seq.Retries, len(seq.Assignments))
						}
						ringF.CheckInvariants()
						treeF.CheckInvariants()
					})
				}
			}
		}
	}
}

// compareRounds requires two rounds on identically built rings to be
// indistinguishable.
func compareRounds(t *testing.T, seq, forked *Result, ringS, ringF *chord.Ring) {
	t.Helper()
	engS, engF := ringS.Engine(), ringF.Engine()
	if s, f := outcome(seq, nil, engS), outcome(forked, nil, engF); s != f {
		t.Errorf("outcome diverged:\n  sequential %s\n  forked     %s", s, f)
	}
	if seq.MovedLoad != forked.MovedLoad || seq.UnassignedOffers != forked.UnassignedOffers || seq.UnassignedLoad != forked.UnassignedLoad {
		t.Errorf("moved %v/%v, unassigned %d/%d (%v/%v)", seq.MovedLoad, forked.MovedLoad,
			seq.UnassignedOffers, forked.UnassignedOffers, seq.UnassignedLoad, forked.UnassignedLoad)
	}
	for i := 0; i < len(seq.Assignments) && i < len(forked.Assignments); i++ {
		if a, b := seq.Assignments[i], forked.Assignments[i]; a.Depth != b.Depth {
			t.Errorf("assignment %d: rendezvous depth %d vs %d", i, a.Depth, b.Depth)
			break
		}
	}
	if s, f := hostedOrder(ringS), hostedOrder(ringF); s != f {
		t.Errorf("per-node VS order diverged")
	}
	kinds := engS.MessageKinds()
	if fmt.Sprint(kinds) != fmt.Sprint(engF.MessageKinds()) {
		t.Errorf("message kinds %v vs %v", kinds, engF.MessageKinds())
	}
	for _, kind := range kinds {
		if s, f := engS.MessageCount(kind), engF.MessageCount(kind); s != f {
			t.Errorf("%s count %d (sequential) vs %d (forked)", kind, s, f)
		}
		if s, f := engS.MessageCost(kind), engF.MessageCost(kind); s != f {
			t.Errorf("%s cost %d (sequential) vs %d (forked)", kind, s, f)
		}
	}
}

// TestParallelSubtreesDeterministic: forked runs on identical fixtures
// agree in every observable at any core count, losslessly and under a
// drop and duplication plan — goroutine scheduling must not leak into
// outcomes.
func TestParallelSubtreesDeterministic(t *testing.T) {
	for _, plan := range []faults.Plan{{}, {Drop: 0.1, Duplicate: 0.05}} {
		run := func(procs int) string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ring, tree := fixture(11, 384, 5)
			if !plan.Empty() {
				in, err := faults.New(11, plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.Attach(ring); err != nil {
					t.Fatal(err)
				}
			}
			res := runOneRound(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
			return fingerprint(res, nil, ring.Engine()) + " hosted=" + hostedOrder(ring) +
				fmt.Sprintf(" dropped=%d", ring.Engine().DroppedTotal())
		}
		ref := run(1)
		for _, procs := range []int{1, 4, 4} {
			if got := run(procs); got != ref {
				t.Fatalf("plan %+v, GOMAXPROCS %d diverged:\n  %s\n  %s", plan, procs, got, ref)
			}
		}
	}
}

// commitLog records every virtual-server move the ring makes, with the
// tick it committed at.
type commitLog struct {
	eng   *sim.Engine
	moves []move
}

type move struct {
	at       sim.Time
	vs       *chord.VServer
	from, to int
}

func (c *commitLog) VSAdded(*chord.VServer)   {}
func (c *commitLog) VSRemoved(*chord.VServer) {}
func (c *commitLog) VSTransferred(vs *chord.VServer, from, to *chord.Node) {
	c.moves = append(c.moves, move{c.eng.Now(), vs, from.Index, to.Index})
}

// lossyRound runs one round on a fresh forkFixture under a fault plan
// and returns the runner, the result, the commit log and the injector.
func lossyRound(t *testing.T, nodes, k int, plan faults.Plan) (*Runner, *Result, *commitLog, *faults.Injector) {
	t.Helper()
	ring, tree := forkFixture(3, nodes, k)
	in, err := faults.New(7, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	log := &commitLog{eng: ring.Engine()}
	ring.Subscribe(log)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, roundErr := r.RunRound()
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	ring.CheckInvariants()
	return r, res, log, in
}

// TestParallelSubtreesEquivalenceUnderLoss: under a filter whose fates
// are keyed by message (faults.Injector), a forked round equals the
// sequential walk. Both collect phases fork, and these match: the global
// tuple, the census, the classified nodes, the timed-out children and
// aborted transfers, the phase ticks, and every transfer's (VS, from,
// to, AssignedAt, commit tick). Replayed pairings are scheduled at the
// join, so transfers committing on one tick may commit in another
// order. Messages, retries and drops match exactly unless the
// sequential walk dropped late copies or retransmissions after the
// round finished (Runner.lateDrops), which a worker cannot know to
// drop: then the forked run may only have more of them, on the collect
// phases' kinds.
func TestParallelSubtreesEquivalenceUnderLoss(t *testing.T) {
	// The 2,048-node cases (with the jittered 512-node K = 2 case) are
	// the ones that caught a key naming a rendezvous point's host rather
	// than its KT node; the other plans are slower to run there.
	plans := []struct {
		name  string
		plan  faults.Plan
		sizes []int
	}{
		{"drop10", faults.Plan{Drop: 0.1}, []int{512, 2048}},
		{"drop30", faults.Plan{Drop: 0.3}, []int{512}},
		{"drop10-dup10-jitter40", faults.Plan{Drop: 0.1, Duplicate: 0.1, JitterMax: 40}, []int{512}},
	}
	collectKinds := map[string]bool{}
	for _, kind := range []string{MsgCollectDown, MsgReportUp, MsgVSADown, MsgVSAUp} {
		collectKinds[kind], collectKinds[kind+MsgAckSuffix] = true, true
	}
	for _, pc := range plans {
		sizes := pc.sizes
		if testing.Short() || raceEnabled {
			sizes = []int{128}
		}
		for _, nodes := range sizes {
			for _, k := range []int{2, 8} {
				t.Run(fmt.Sprintf("n%d-K%d-%s", nodes, k, pc.name), func(t *testing.T) {
					var rS *Runner
					var seq *Result
					var logS *commitLog
					var inS *faults.Injector
					sequentially(func() { rS, seq, logS, inS = lossyRound(t, nodes, k, pc.plan) })
					rF, forked, logF, inF := lossyRound(t, nodes, k, pc.plan)
					if rS.forks != 0 || rF.forks != 2 {
						t.Fatalf("%d phases forked in the reference walk and %d of 2 in the forked run", rS.forks, rF.forks)
					}
					if seq.Retries == 0 || len(seq.Assignments) == 0 {
						t.Fatalf("fixture not a lossy balancing round: %d retries, %d transfers", seq.Retries, len(seq.Assignments))
					}
					if s, f := lossyOutcome(seq), lossyOutcome(forked); s != f {
						t.Errorf("outcome diverged:\n  sequential %s\n  forked     %s", s, f)
					}
					if s, f := commits(seq, logS), commits(forked, logF); s != f {
						t.Errorf("transfers diverged:\n  sequential %s\n  forked     %s", s, f)
					}

					engS, engF := rS.eng, rF.eng
					late := rS.lateDrops - rF.lateDrops
					kinds := map[string]bool{}
					for _, kind := range append(engS.MessageKinds(), engF.MessageKinds()...) {
						kinds[kind] = true
					}
					for kind := range kinds {
						for _, c := range []struct {
							what string
							s, f int64
						}{
							{"messages", engS.MessageCount(kind), engF.MessageCount(kind)},
							{"cost", engS.MessageCost(kind), engF.MessageCost(kind)},
							{"drops", engS.DroppedCount(kind), engF.DroppedCount(kind)},
						} {
							if c.s == c.f {
								continue
							}
							if late == 0 || c.f < c.s || !collectKinds[kind] {
								t.Errorf("%s %s: sequential %d, forked %d (%d late drops in the sequential walk)", kind, c.what, c.s, c.f, late)
							}
						}
					}
					if d := forked.Retries - seq.Retries; d < 0 || (d > 0 && late == 0) {
						t.Errorf("retries: sequential %d, forked %d (%d late drops in the sequential walk)", seq.Retries, forked.Retries, late)
					}
					if engS.DroppedTotal() != inS.Dropped() || engF.DroppedTotal() != inF.Dropped() {
						t.Errorf("injector counted %d/%d drops, engines %d/%d", inS.Dropped(), inF.Dropped(), engS.DroppedTotal(), engF.DroppedTotal())
					}
					if late != 0 {
						t.Logf("%d late drops: forked +%d retries, +%d messages, +%d drops", late,
							forked.Retries-seq.Retries, engF.TotalMessages()-engS.TotalMessages(), engF.DroppedTotal()-engS.DroppedTotal())
					}
				})
			}
		}
	}
}

// lossyOutcome renders what a forked round must reproduce under loss.
func lossyOutcome(res *Result) string {
	return fmt.Sprintf("global=%v/%v/%v census=%d/%d/%d->%d/%d/%d classified=%d timedOut=%d aborted=%d ticks=%d/%d/%d/%d/%d transfers=%d unassigned=%d",
		res.Global.L, res.Global.C, res.Global.Lmin,
		res.HeavyBefore, res.LightBefore, res.NeutralBefore, res.HeavyAfter, res.LightAfter, res.NeutralAfter,
		res.NodesClassified, res.TimedOutChildren, res.AbortedTransfers,
		res.TimeLBIAggregate, res.TimeLBIDisseminate, res.TimePublish, res.TimeVSAComplete, res.TimeVSTComplete,
		len(res.Assignments), res.UnassignedOffers)
}

// commits renders every transfer as (commit tick, VS, from, to,
// AssignedAt), sorted, so transfers committing on one tick compare
// whatever their order within it.
func commits(res *Result, log *commitLog) string {
	assigned := make(map[*chord.VServer]sim.Time, len(res.Assignments))
	for _, a := range res.Assignments {
		assigned[a.VS] = a.AssignedAt
	}
	moves := make([]string, len(log.moves))
	for i, m := range log.moves {
		moves[i] = fmt.Sprintf("%08d %v %d->%d @%d", m.at, m.vs.ID, m.from, m.to, assigned[m.vs])
	}
	slices.Sort(moves)
	h := fnv.New64a()
	for _, m := range moves {
		fmt.Fprintln(h, m)
	}
	return fmt.Sprintf("%d:%016x", len(moves), h.Sum64())
}

// TestParallelSubtreesSequentialWithTimedFaults: a plan with partitions
// (windows of absolute time) or crashes (which change the ring) gives
// worker engines no filter, so its rounds take the sequential walk,
// event for event, even with nothing foreign pending.
func TestParallelSubtreesSequentialWithTimedFaults(t *testing.T) {
	plans := map[string]faults.Plan{
		"partition": {Drop: 0.1, Partitions: []faults.Partition{{From: 0, Until: 1 << 40, Side: []int{1, 2, 3}}}},
		"crash":     {Drop: 0.1, Crashes: []faults.Crash{{At: 0, Node: 60}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			run := func() (string, int) {
				ring, tree := fixture(13, 64, 5)
				in, err := faults.New(1, plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.Attach(ring); err != nil {
					t.Fatal(err)
				}
				ring.Engine().Run() // the crash fires before the round
				r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
				if err != nil {
					t.Fatal(err)
				}
				res, roundErr := r.RunRound()
				return fingerprint(res, roundErr, ring.Engine()), r.forks
			}
			var ref string
			sequentially(func() { ref, _ = run() })
			got, forks := run()
			if forks != 0 || got != ref {
				t.Fatalf("%d phases forked; round left the sequential walk:\n  got  %s\n  want %s", forks, got, ref)
			}
		})
	}
}

// checkPinned compares a round against the outcome the sequential walk
// produced before forking became the default, and the engine's event
// count against that walk's plus the replays of the phases that forked.
func checkPinned(t *testing.T, res *Result, err error, eng *sim.Engine, want string, wantEvents uint64) {
	t.Helper()
	if got := outcome(res, err, eng); got != want {
		t.Errorf("outcome moved:\n  got  %s\n  want %s", got, want)
	}
	if got := eng.Executed(); got != wantEvents {
		t.Errorf("executed %d events, want %d", got, wantEvents)
	}
}

// TestParallelSubtreesSequentialUnderRunUntil: a caller stepping the
// engine with RunUntil may change the world between events — here it
// crashes 8 nodes at tick 22, mid-LBI — so the LBI phase must not
// simulate ahead. The VSA phase starts inside the later Run with
// nothing else pending, so it forks.
func TestParallelSubtreesSequentialUnderRunUntil(t *testing.T) {
	ring, tree := fixture(21, 256, 4)
	eng := ring.Engine()
	rootChildren := tree.NumChildren(tree.Root())
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	var out *Result
	var outErr error
	if err := r.StartRound(func(res *Result, err error) { out, outErr = res, err }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 22)
	crashLast(ring, tree, 8)
	eng.Run()
	checkPinned(t, out, outErr, eng,
		"global=25165.403553673223/14290/0 census=180/68/0->71/177/0 classified=248 timedOut=62 aborted=0 retries=0 ticks=2044/2068/0/8086/8094 transfers=333:26972a3665121289 msgs=45969 now=8096 err=<nil>",
		40940+forkReplays(out, rootChildren, 1))
}

// TestParallelSubtreesSequentialWithTicker: a periodic event pending on
// the engine (here a churn ticker crashing a node every 20 ticks, three
// times) is foreign to the round, so every phase takes the sequential
// walk, event for event.
func TestParallelSubtreesSequentialWithTicker(t *testing.T) {
	ring, tree := fixture(14, 128, 4)
	eng := ring.Engine()
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	stop := eng.Every(20, func() {
		if crashes < 3 {
			crashes++
			crashLast(ring, tree, 1)
		}
	})
	var out *Result
	var outErr error
	if err := r.StartRound(func(res *Result, err error) { out, outErr = res, err; stop() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	checkPinned(t, out, outErr, eng,
		"global=12792.536231905786/9767/0 census=88/36/0->31/94/0 classified=124 timedOut=16 aborted=0 retries=0 ticks=2536/2560/0/9068/9076 transfers=164:34ca1ab5a9393508 msgs=20799 now=9078 err=<nil>",
		18773)
}

// TestParallelSubtreesBesideTraffic: on a ring whose membership is
// frozen, foreign events pending on the root — here one cached lookup a
// tick, plain closures, for the whole round — no longer keep a collect
// phase sequential. The forked round leaves the world the sequential
// walk leaves, every lookup lands as it did there (VS, hops, cost and
// the owner's index at landing), and the engine executes the
// sequential count plus the replays. Unfrozen, the same traffic keeps
// the exact-count rule: the sequential walk, event for event.
func TestParallelSubtreesBesideTraffic(t *testing.T) {
	for _, k := range []int{2, 8} {
		for _, mode := range []core.Mode{core.ProximityIgnorant, core.ProximityAware} {
			t.Run(fmt.Sprintf("K%d-%v", k, mode), func(t *testing.T) {
				cfg := Config{Core: core.Config{Epsilon: 0.05, Mode: mode}}
				if mode == core.ProximityAware {
					cfg.Core.Mapper = blockMapper{}
				}
				run := func(frozen bool) (*Result, *chord.Ring, []string, int) {
					ring, tree := forkFixture(3, 512, k)
					if frozen {
						defer ring.FreezeMembership()()
					}
					eng := ring.Engine()
					cache := chord.NewLookupCache(ring, 0)
					nodes := ring.AliveNodes()
					rng := rand.New(rand.NewSource(int64(k)))
					var landed []string
					stop := eng.Every(1, func() {
						from, key := nodes[rng.Intn(len(nodes))], ident.ID(rng.Uint32())
						ring.CachedLookup(cache, from, key, func(res chord.LookupResult) {
							landed = append(landed, fmt.Sprintf("at=%d vs=%v hops=%d cost=%d owner=%d",
								eng.Now(), res.VS.ID, res.Hops, res.Cost, res.VS.Owner.Index))
						})
					})
					r, err := NewRunner(ring, tree, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var out *Result
					if err := r.StartRound(func(res *Result, err error) {
						if err != nil {
							t.Error(err)
						}
						out = res
						stop()
					}); err != nil {
						t.Fatal(err)
					}
					eng.Run()
					if out == nil {
						t.Fatal("round never completed")
					}
					ring.CheckInvariants()
					return out, ring, landed, tree.NumChildren(tree.Root())
				}
				var seq *Result
				var ringS *chord.Ring
				var landedS []string
				sequentially(func() { seq, ringS, landedS, _ = run(true) })
				forked, ringF, landedF, rootChildren := run(true)
				compareRounds(t, seq, forked, ringS, ringF)
				if len(landedS) < 50 || len(seq.Assignments) == 0 {
					t.Fatalf("fixture too quiet: %d lookups, %d transfers", len(landedS), len(seq.Assignments))
				}
				if len(landedS) != len(landedF) {
					t.Fatalf("%d lookups landed (sequential) vs %d (forked)", len(landedS), len(landedF))
				}
				for i := range landedS {
					if landedS[i] != landedF[i] {
						t.Fatalf("lookup %d diverged:\n  sequential %s\n  forked     %s", i, landedS[i], landedF[i])
					}
				}
				extra := forkReplays(seq, rootChildren, 2)
				if s, f := ringS.Engine().Executed(), ringF.Engine().Executed(); f != s+extra {
					t.Errorf("forked executed %d events, want sequential %d + %d replays", f, s, extra)
				}

				_, ringU, landedU, _ := run(false)
				if s, u := ringS.Engine().Executed(), ringU.Engine().Executed(); u != s {
					t.Errorf("unfrozen ring executed %d events, want the sequential %d", u, s)
				}
				if fmt.Sprint(landedU) != fmt.Sprint(landedS) {
					t.Error("unfrozen lookups diverged from the sequential walk's")
				}
			})
		}
	}
}
