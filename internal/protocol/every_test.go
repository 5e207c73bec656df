package protocol

import (
	"math/rand"
	"sort"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/ktree"
	"p2plb/internal/metrics"
	"p2plb/internal/objects"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// storeFixture is an object-backed heterogeneous ring with a built
// tree: each virtual server's load is the sum of its objects' loads.
func storeFixture(t *testing.T, seed int64, nodes, objCount int) (*chord.Ring, *ktree.Tree, *objects.Store, *rand.Rand) {
	t.Helper()
	ring := workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: 5})
	store := objects.NewStore(ring)
	rng := rand.New(rand.NewSource(seed))
	if err := store.Populate(rng, objCount, func(r *rand.Rand) float64 { return r.Float64() * 2 }); err != nil {
		t.Fatal(err)
	}
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	return ring, tree, store, rng
}

// periodicRound is one round Every started, with the unit-load Gini
// around it.
type periodicRound struct {
	giniBefore, giniAfter float64
	res                   *Result
	err                   error
}

// runPeriodic schedules rounds through Every until the engine reaches
// until, runs hook (when set) before each round, stops, drains the
// engine and returns every outcome done saw.
func runPeriodic(t *testing.T, ring *chord.Ring, tree *ktree.Tree, cfg Config, interval, until sim.Time, hook func()) []periodicRound {
	t.Helper()
	r, err := NewRunner(ring, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := ring.Engine()
	var rounds []periodicRound
	var before float64
	stop := Every(eng, interval, r.StartRound, func() bool {
		if hook != nil {
			hook()
		}
		before = core.UnitLoadGini(ring)
		return true
	}, func(res *Result, err error) {
		rounds = append(rounds, periodicRound{before, core.UnitLoadGini(ring), res, err})
	})
	eng.RunUntil(until)
	stop()
	eng.Run()
	for i, pr := range rounds {
		if pr.err != nil {
			t.Fatalf("round %d failed: %v", i, pr.err)
		}
	}
	return rounds
}

func TestEveryPeriodicRoundsRun(t *testing.T) {
	ring, tree, _, _ := storeFixture(t, 2, 96, 20000)
	rounds := runPeriodic(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}}, 5000, 26000, nil)
	if len(rounds) < 4 {
		t.Fatalf("expected >= 4 rounds, got %d", len(rounds))
	}
	for i, pr := range rounds {
		if pr.giniAfter > pr.giniBefore+1e-9 {
			t.Errorf("round %d worsened imbalance: %v -> %v", i, pr.giniBefore, pr.giniAfter)
		}
	}
	// The first round does the heavy lifting; later ones find balance.
	first, last := rounds[0].res.MovedLoad, rounds[len(rounds)-1].res.MovedLoad
	if first == 0 {
		t.Error("first round moved nothing")
	}
	if last > first/4 {
		t.Errorf("no convergence: first moved %v, last %v", first, last)
	}
}

func TestEveryDriftingWorkloadStaysContained(t *testing.T) {
	ring, tree, store, rng := storeFixture(t, 3, 96, 20000)
	loadFn := func(r *rand.Rand) float64 { return r.Float64() * 2 }
	rounds := runPeriodic(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}}, 5000, 60000, func() {
		// 10% of the object population churns between rounds.
		if err := store.Drift(rng, 2000, loadFn); err != nil {
			t.Error(err)
		}
	})
	if len(rounds) < 8 {
		t.Fatalf("only %d rounds ran", len(rounds))
	}
	// The very first round faces the raw unbalanced workload.
	initial := rounds[0]
	if initial.giniBefore < 0.6 {
		t.Fatalf("fixture too tame: initial Gini %v", initial.giniBefore)
	}
	// Containment: with 10% of objects churning between rounds, the
	// pre-round imbalance must never climb back anywhere near the
	// initial level (capacity granularity keeps a floor of ~0.3 —
	// capacity-1 nodes cannot hold a proportional share — so the
	// meaningful signal is distance from the unbalanced state, not 0).
	var pre, post float64
	for i, pr := range rounds {
		pre += pr.giniBefore
		post += pr.giniAfter
		if i < 2 {
			continue
		}
		if pr.giniBefore > initial.giniBefore*0.7 {
			t.Errorf("round %d saw pre-Gini %v, drift not contained (initial %v)", i, pr.giniBefore, initial.giniBefore)
		}
		if pr.res.MovedLoad > initial.res.MovedLoad {
			t.Errorf("round %d moved more than the initial round", i)
		}
	}
	// Rounds must keep improving on the drift they absorb.
	if post >= pre {
		t.Errorf("rounds do not improve imbalance: mean %v -> %v", pre/float64(len(rounds)), post/float64(len(rounds)))
	}
	if err := store.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
}

// TestEveryMembershipChurn changes the membership in the before hook
// and never repairs the tree itself: every round repairs it as it
// starts.
func TestEveryMembershipChurn(t *testing.T) {
	ring, tree, store, rng := storeFixture(t, 4, 96, 10000)
	rounds := runPeriodic(t, ring, tree, Config{Core: core.Config{Epsilon: 0.05}}, 6000, 40000, func() {
		// One node dies and one joins before every round; the store
		// re-derives loads from object ownership.
		alive := ring.AliveNodes()
		if len(alive) > 16 {
			ring.RemoveNode(alive[rng.Intn(len(alive))])
		}
		workload.Join(ring, -1, 5, nil)
		store.SyncLoads()
	})
	if len(rounds) < 5 {
		t.Fatalf("only %d rounds ran", len(rounds))
	}
	if err := store.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
}

// TestEveryIntervalShorterThanRoundSkips: with an interval of one tick
// almost every tick lands while a round is in flight. Those ticks run
// neither the hook nor the starter, so no round is ever rejected as
// already active, and the rounds after them still complete.
func TestEveryIntervalShorterThanRoundSkips(t *testing.T) {
	ring, tree, _, _ := storeFixture(t, 5, 64, 5000)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	eng := ring.Engine()
	hooks, starts, completed := 0, 0, 0
	start := func(done func(*Result, error)) error {
		starts++
		return r.StartRound(done)
	}
	stop := Every(eng, 1, start, func() bool { hooks++; return true }, func(_ *Result, err error) {
		if err != nil {
			t.Errorf("round failed: %v", err)
		}
		completed++
	})
	const ticks = 200
	eng.RunUntil(ticks)
	stop()
	eng.Run()
	if completed < 2 {
		t.Fatalf("%d rounds completed, want a later round after the skipped ticks", completed)
	}
	if hooks != starts || starts != completed {
		t.Fatalf("hooks %d, starts %d, completed %d: an in-flight tick reached the hook or the starter", hooks, starts, completed)
	}
	if starts >= ticks {
		t.Fatalf("%d rounds started in %d ticks: no tick was skipped", starts, ticks)
	}
}

// TestEveryStop: stop is idempotent, a round in flight still completes,
// and no tick reaches the hook or the starter afterwards.
func TestEveryStop(t *testing.T) {
	ring, tree, _, _ := storeFixture(t, 41, 64, 2000)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	eng := ring.Engine()
	hooks, completed := 0, 0
	stop := Every(eng, 1000, r.StartRound, func() bool { hooks++; return true }, func(_ *Result, err error) {
		if err != nil {
			t.Errorf("round failed: %v", err)
		}
		completed++
	})
	eng.RunUntil(3001) // the third round has started and is in flight
	if hooks != 3 || completed != 2 {
		t.Fatalf("at stop: %d hooks, %d completed rounds; want 3 and 2", hooks, completed)
	}
	stop()
	stop()
	eng.Run()
	if hooks != 3 {
		t.Fatalf("%d hooks after stop, want 3", hooks)
	}
	if completed != 3 {
		t.Fatalf("%d rounds completed, want the in-flight one to finish", completed)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after stop and drain", eng.Pending())
	}
}

// TestEveryHookSkips: a hook that returns false skips its tick.
func TestEveryHookSkips(t *testing.T) {
	ring, tree := fixture(42, 32, 3)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	eng := ring.Engine()
	ticks, completed := 0, 0
	stop := Every(eng, 1000, r.StartRound, func() bool { ticks++; return ticks%2 == 0 }, func(*Result, error) { completed++ })
	eng.RunUntil(6500)
	stop()
	eng.Run()
	if ticks != 6 || completed != 3 {
		t.Fatalf("%d ticks, %d rounds; want 6 and every other one", ticks, completed)
	}
}

// TestEverySynchronousStartError: a starter that fails at once reports
// through done(nil, err), and the next tick tries again.
func TestEverySynchronousStartError(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ring, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	stop := Every(eng, 10, r.StartRound, func() bool { return true }, func(res *Result, err error) {
		if res != nil || err == nil {
			t.Errorf("done(%v, %v), want (nil, error) from an empty ring", res, err)
		}
		failures++
	})
	eng.RunUntil(35)
	stop()
	if failures != 3 {
		t.Fatalf("%d failures reported, want one per tick", failures)
	}
}

// countedRounds drives six rounds through Every on an object-backed
// ring under plan, with the root's host dying one tick into the round
// of tick killRootAt (0: no kill). It returns the rounds done saw, how
// many failed, the retransmissions the clean ones reported, and the
// registry the engine published to.
func countedRounds(t *testing.T, plan faults.Plan, killRootAt int) (rounds, failed, retries int64, reg *metrics.Registry) {
	t.Helper()
	ring, tree, _, _ := storeFixture(t, 6, 96, 10000)
	eng := ring.Engine()
	reg = metrics.NewRegistry()
	eng.SetMetrics(reg)
	in, err := faults.New(6, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	before := func() bool {
		ticks++
		if ticks == killRootAt {
			// The root's host dies one tick into this round: the round
			// fails by its deadline, and the next one starts on a tree
			// its own Repair replanted.
			eng.ScheduleEv(1, sim.Func(func() { ring.RemoveNode(tree.Host(tree.Root()).Owner) }))
		}
		return true
	}
	stop := Every(eng, 60000, r.StartRound, before, func(res *Result, err error) {
		rounds++
		if err != nil {
			failed++
			return
		}
		retries += int64(res.Retries)
	})
	eng.RunUntil(6*60000 + 1)
	stop()
	eng.Run()
	if rounds != 6 {
		t.Fatalf("%d rounds, want 6", rounds)
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
	return rounds, failed, retries, reg
}

// checkCounters requires each named registry counter to hold want.
func checkCounters(t *testing.T, reg *metrics.Registry, want map[string]int64) {
	t.Helper()
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got, w := reg.Counter(name).Value(), want[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}

// TestEveryRetriesSurfacedInMetrics drives rounds through Every under
// 10% message loss and requires protocol.retries and protocol.rounds to
// equal the sums over what done saw.
func TestEveryRetriesSurfacedInMetrics(t *testing.T) {
	rounds, failed, retries, reg := countedRounds(t, faults.Plan{Drop: 0.1}, 0)
	if failed != 0 {
		t.Fatalf("%d rounds failed under loss alone, want 0", failed)
	}
	if retries == 0 {
		t.Fatal("10% loss produced no retransmissions")
	}
	checkCounters(t, reg, map[string]int64{
		"protocol.rounds":       rounds,
		"protocol.round_errors": 0,
		"protocol.retries":      retries,
	})
}

// TestEveryFailedRoundsSurfaced loses the root's host in the middle of
// one of the rounds Every starts under 10% message loss: exactly that
// round fails, the rest run on the repaired tree, and
// protocol.round_errors counts the failure among protocol.rounds.
func TestEveryFailedRoundsSurfaced(t *testing.T) {
	rounds, failed, retries, reg := countedRounds(t, faults.Plan{Drop: 0.1}, 3)
	if failed != 1 {
		t.Fatalf("%d rounds failed, want the one that lost its root", failed)
	}
	checkCounters(t, reg, map[string]int64{
		"protocol.rounds":       rounds,
		"protocol.round_errors": failed,
		"protocol.retries":      retries,
	})
}

// TestStartRoundRepairsFirst removes a node and starts a round with no
// explicit Repair: before the round's first event fires, the departed
// virtual servers have no leaves and the tree's invariants hold.
func TestStartRoundRepairsFirst(t *testing.T) {
	ring, tree := fixture(43, 64, 4)
	var victim *chord.Node
	for _, n := range ring.AliveNodes() {
		if n != tree.Host(tree.Root()).Owner && len(tree.LeavesOf(n.VServers()[0])) > 0 {
			victim = n
			break
		}
	}
	departed := append([]*chord.VServer(nil), victim.VServers()...)
	ring.RemoveNode(victim)
	if len(tree.LeavesOf(departed[0])) == 0 {
		t.Fatal("the departure already removed its leaves; the test covers nothing")
	}
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	var out *Result
	var outErr error
	if err := r.StartRound(func(res *Result, err error) { out, outErr = res, err }); err != nil {
		t.Fatal(err)
	}
	for _, vs := range departed {
		if n := len(tree.LeavesOf(vs)); n != 0 {
			t.Errorf("departed VS %v still has %d leaves at the round's start", vs.ID, n)
		}
	}
	tree.CheckInvariants()
	ring.Engine().Run()
	if outErr != nil || out == nil {
		t.Fatalf("round: %v, %v", out, outErr)
	}
	if out.TimedOutChildren != 0 {
		t.Errorf("%d timed-out children on a repaired tree", out.TimedOutChildren)
	}
}
