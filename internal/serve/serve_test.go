package serve

import (
	"reflect"
	"strings"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func testPlan() workload.PlanSpec {
	return workload.PlanSpec{
		Seed:        1,
		Requests:    8000,
		Objects:     1000,
		Rate:        2,
		PutFraction: 0.1,
		Origins:     48,
	}
}

type fixture struct {
	eng  *sim.Engine
	ring *chord.Ring
	srv  *Server
}

// build assembles a 48-node Gnutella-capacity ring and a Server; with
// balanced it wires a protocol.Runner whose rounds classify against the
// Server's observed rates.
func build(t *testing.T, seed int64, cfg Config, balanced bool) *fixture {
	t.Helper()
	eng := sim.NewEngine(seed)
	ring := workload.NewRing(eng, workload.RingSpec{Nodes: 48, VSPerNode: 4})
	srv, err := New(eng, ring, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if balanced {
		tree, err := ktree.New(ring, 4)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := protocol.NewRunner(ring, tree, protocol.Config{
			Core: core.Config{Epsilon: 0.05, Loads: srv},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.UseBalancer(runner, 1500)
	}
	return &fixture{eng: eng, ring: ring, srv: srv}
}

// Two runs of the same plan at the same seed must produce identical
// reports down to the raw latency-stream checksum — the determinism
// contract behind EXPERIMENTS.md "Tail latency" and exp's sweep test.
func TestServeDeterministic(t *testing.T) {
	run := func() *Report {
		f := build(t, 1, Config{Plan: testPlan(), Work: 100}, true)
		rep, err := f.srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Checksum != b.Checksum {
		t.Fatalf("latency streams diverge: %s vs %s", a.Checksum, b.Checksum)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverge:\n%+v\n%+v", a, b)
	}
	if a.Requests != testPlan().Requests {
		t.Fatalf("served %d requests, plan had %d", a.Requests, testPlan().Requests)
	}
	if a.Gets+a.Puts != a.Requests || a.Puts == 0 {
		t.Fatalf("implausible op split: %d gets, %d puts", a.Gets, a.Puts)
	}
}

// Balancing rounds must actually interleave with the stream, move
// virtual servers, and leave per-VS loads equal to the observed rates.
func TestServeInterleavesBalancerRounds(t *testing.T) {
	f := build(t, 1, Config{Plan: testPlan(), Work: 100}, true)
	rep, err := f.srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 2 {
		t.Fatalf("only %d balancing rounds interleaved, want >= 2", rep.Rounds)
	}
	if rep.Transfers == 0 {
		t.Fatal("rounds ran but no virtual server moved")
	}
	// A refresh writes the observed EWMA rates into vs.Load.
	f.srv.Refresh(f.ring)
	var total float64
	for _, vs := range f.ring.VServers() {
		if vs.Load < 0 {
			t.Fatalf("negative observed load %v", vs.Load)
		}
		total += vs.Load
	}
	if total == 0 {
		t.Fatal("no load observed after 8000 requests")
	}
	f.ring.CheckInvariants()
}

// Serving forbids membership change mid-plan: a crash scheduled inside
// Run panics with the ring's freeze message, and the same removal
// succeeds once Run has returned.
func TestServeFreezesMembership(t *testing.T) {
	f := build(t, 1, Config{Plan: testPlan(), Work: 100}, true)
	victim := f.ring.AliveNodes()[7]
	f.eng.ScheduleEv(200, sim.Func(func() { f.ring.RemoveNode(victim) }))
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "RemoveNode on a ring whose membership is frozen") {
				t.Fatalf("RemoveNode mid-Run: panic %q, want the freeze message", msg)
			}
		}()
		_, _ = f.srv.Run()
	}()
	if f.ring.MembershipFrozen() {
		t.Fatal("ring still frozen after Run returned")
	}
	f.ring.RemoveNode(victim)
	if victim.Alive {
		t.Fatal("RemoveNode after Run left the node alive")
	}
	f.ring.CheckInvariants()
}

// The balancer-off baseline serves the identical request stream (same
// plan, same seed) — only the latency outcome differs.
func TestServeBalancerOffStillDrains(t *testing.T) {
	f := build(t, 1, Config{Plan: testPlan(), Work: 100}, false)
	rep, err := f.srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 0 || rep.Transfers != 0 {
		t.Fatalf("balancer-off ran %d rounds, %d transfers", rep.Rounds, rep.Transfers)
	}
	if rep.Requests != testPlan().Requests {
		t.Fatalf("served %d, want %d", rep.Requests, testPlan().Requests)
	}
}

// The hot-path cache must cut mean lookup hops against the uncached
// baseline on the same plan.
func TestServeCacheCutsHops(t *testing.T) {
	cached := build(t, 1, Config{Plan: testPlan(), Work: 100}, false)
	crep, err := cached.srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	uncached := build(t, 1, Config{Plan: testPlan(), Work: 100, CacheSize: -1}, false)
	urep, err := uncached.srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if crep.CacheHits == 0 {
		t.Fatal("cache never hit under a Zipf workload")
	}
	if urep.CacheHits != 0 || urep.CacheMisses != 0 {
		t.Fatalf("uncached run counted cache traffic: %+v", urep)
	}
	if crep.MeanHops >= urep.MeanHops {
		t.Fatalf("cache did not cut hops: %.3f cached vs %.3f uncached", crep.MeanHops, urep.MeanHops)
	}
}

// Priming wires internal/objects in: the store holds the plan's object
// population with analytically expected loads, credited consistently.
func TestServePrimedStore(t *testing.T) {
	f := build(t, 1, Config{Plan: testPlan(), Work: 100}, false)
	store := f.srv.Store()
	if store.Len() != testPlan().Objects {
		t.Fatalf("store holds %d objects, plan has %d", store.Len(), testPlan().Objects)
	}
	if err := store.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
	// Expected total credited rate: Rate·Work (weights sum to 1).
	want := testPlan().Rate * 100
	got := store.TotalLoad()
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("primed store totals %v, want ≈ %v", got, want)
	}
}

// Hot objects get replicas; replicated gets spread across distinct
// nodes, visible as replica sets after a promotion pass.
func TestServeHotReplication(t *testing.T) {
	f := build(t, 1, Config{Plan: testPlan(), Work: 100}, false)
	if _, err := f.srv.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.srv.reps) == 0 || len(f.srv.reps) > hotCount {
		t.Fatalf("%d hot objects promoted, want 1..%d", len(f.srv.reps), hotCount)
	}
	for obj, set := range f.srv.reps {
		if len(set) > maxReplicas {
			t.Fatalf("object %d: %d replicas, cap %d", obj, len(set), maxReplicas)
		}
		owner := f.ring.Successor(f.srv.keys[obj])
		seen := map[*chord.Node]bool{owner.Owner: true}
		for _, rep := range set {
			if seen[rep.Owner] {
				t.Fatalf("object %d: replica set reuses node %d", obj, rep.Owner.Index)
			}
			seen[rep.Owner] = true
		}
	}
}

// A warmup window drops early arrivals from the summaries but not from
// the served counts or the observation state.
func TestServeWarmupExcludesEarlyArrivals(t *testing.T) {
	full := build(t, 1, Config{Plan: testPlan(), Work: 100}, false)
	frep, err := full.srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	warm := build(t, 1, Config{Plan: testPlan(), Work: 100, Warmup: 1000}, false)
	wrep, err := warm.srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if wrep.Requests != frep.Requests || wrep.Gets != frep.Gets || wrep.Puts != frep.Puts {
		t.Fatalf("warmup changed what was served: %+v vs %+v", wrep, frep)
	}
	if wrep.Measured >= frep.Measured {
		t.Fatalf("warmup excluded nothing: measured %d vs %d", wrep.Measured, frep.Measured)
	}
	// Rate 2/tick for 1000 ticks ≈ 2000 excluded arrivals.
	excluded := frep.Measured - wrep.Measured
	if excluded < 1500 || excluded > 2500 {
		t.Fatalf("excluded %d arrivals, expected ≈ 2000", excluded)
	}
	if wrep.Checksum == frep.Checksum {
		t.Fatal("checksum unchanged despite excluded samples")
	}
}

func TestServeConfigErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	if _, err := New(eng, ring, Config{Plan: testPlan()}); err == nil {
		t.Fatal("expected empty-ring error")
	}
	ring.AddNode(-1, 10, 4)
	if _, err := New(eng, ring, Config{}); err == nil {
		t.Fatal("expected invalid-plan error")
	}
	srv, err := New(eng, ring, Config{Plan: testPlan(), Work: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(); err == nil {
		t.Fatal("expected already-ran error")
	}
}
