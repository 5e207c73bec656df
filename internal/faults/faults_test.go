package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Drop: -0.1},
		{Drop: 1.5},
		{Duplicate: 2},
		{DropByKind: map[string]float64{"x": -1}},
		{DuplicateByKind: map[string]float64{"x": 7}},
		{JitterMax: -3},
		{Partitions: []Partition{{From: 10, Until: 10, Side: []int{0}}}},
		{Partitions: []Partition{{From: 0, Until: 5}}},
		{Crashes: []Crash{{At: -1, Node: 0}}},
		{Crashes: []Crash{{At: 5, Node: -2}}},
		{Crashes: []Crash{{At: 5, Node: 0, Restart: 5}}},
	}
	for i, p := range bad {
		if _, err := New(1, p); err == nil {
			t.Errorf("plan %d: expected validation error, got none", i)
		}
	}
	if _, err := New(1, Plan{Drop: 0.3, JitterMax: 4}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan not Empty")
	}
	if (Plan{JitterMax: 1}).Empty() {
		t.Error("jittering plan reported Empty")
	}
}

// TestDeterminism replays an identical offer sequence, one key per
// offer, through two injectors with the same (seed, plan) and requires
// identical fates.
func TestDeterminism(t *testing.T) {
	plan := Plan{
		Drop:       0.2,
		DropByKind: map[string]float64{"b": 0.5},
		Duplicate:  0.3,
		JitterMax:  7,
	}
	run := func() ([]int, []sim.Time) {
		in, err := New(42, plan)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int
		var extras []sim.Time
		for i := 0; i < 2000; i++ {
			kind := "a"
			if i%3 == 0 {
				kind = "b"
			}
			out := in.Deliveries(kind, uint64(i), i%10, (i+1)%10, sim.Time(i), 5)
			counts = append(counts, len(out))
			extras = append(extras, append([]sim.Time(nil), out...)...)
		}
		return counts, extras
	}
	c1, e1 := run()
	c2, e2 := run()
	if len(c1) != len(c2) || len(e1) != len(e2) {
		t.Fatal("replay produced different shapes")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("offer %d: %d copies vs %d", i, c1[i], c2[i])
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("extra %d: %d vs %d", i, e1[i], e2[i])
		}
	}
}

// TestKeyedFates: a message's fate is a function of its key alone.
// Offering 10^5 distinct keys in order and in a shuffled order, at
// other times and between other endpoints, gives every key the same
// copies and jitter; the realized drop and duplication rates fall within
// four standard errors of the plan; jitter stays in [0, JitterMax] and
// reaches both ends; and an empty plan passes every key through as one
// undelayed copy.
func TestKeyedFates(t *testing.T) {
	const n = 100_000
	plan := Plan{Drop: 0.2, Duplicate: 0.1, JitterMax: 40}
	offer := func(in *Injector, order []int) []string {
		fates := make([]string, n)
		for pos, k := range order {
			fates[k] = fmt.Sprint(in.Deliveries("k", uint64(k), pos%7, (pos+3)%7, sim.Time(pos), 2))
		}
		return fates
	}
	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	shuffled := rand.New(rand.NewSource(1)).Perm(n)
	a, err := New(11, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(11, plan)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := offer(a, inOrder), offer(b, shuffled)
	for k := range fa {
		if fa[k] != fb[k] {
			t.Fatalf("key %d: %s in order, %s shuffled", k, fa[k], fb[k])
		}
	}
	if a.Dropped() != b.Dropped() || a.Duplicated() != b.Duplicated() {
		t.Fatalf("counters depend on order: %d/%d vs %d/%d", a.Dropped(), a.Duplicated(), b.Dropped(), b.Duplicated())
	}

	within := func(what string, got, trials int64, p float64) {
		t.Helper()
		rate := float64(got) / float64(trials)
		if sigma := math.Sqrt(p * (1 - p) / float64(trials)); math.Abs(rate-p) > 4*sigma {
			t.Errorf("%s rate %.4f over %d, want %.2f ± %.4f", what, rate, trials, p, 4*sigma)
		}
	}
	within("drop", a.Dropped(), n, plan.Drop)
	within("duplication", a.Duplicated(), n-a.Dropped(), plan.Duplicate)

	var lo, hi bool
	for k := 0; k < n; k++ {
		for _, extra := range a.Deliveries("k", uint64(k), 0, 1, 0, 2) {
			if extra < 0 || extra > plan.JitterMax {
				t.Fatalf("key %d: jitter %d outside [0, %d]", k, extra, plan.JitterMax)
			}
			lo = lo || extra == 0
			hi = hi || extra == plan.JitterMax
		}
	}
	if !lo || !hi {
		t.Errorf("jitter never reached 0 (%v) or %d (%v)", lo, plan.JitterMax, hi)
	}

	empty, err := New(11, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if out := empty.Deliveries("k", uint64(k), 0, 1, sim.Time(k), 2); len(out) != 1 || out[0] != 0 {
			t.Fatalf("empty plan: key %d delivered as %v", k, out)
		}
	}
}

// TestForkJoin: a fork decides every key as its parent does, and Join
// moves the fork's drop and duplication counts into the parent and its
// metrics. Plans with partitions or crashes do not fork.
func TestForkJoin(t *testing.T) {
	eng := sim.NewEngine(3)
	ring := chord.NewRing(eng, chord.Config{})
	ring.AddNode(-1, 100, 2)
	reg := metrics.NewRegistry()
	eng.SetMetrics(reg)
	in, err := New(3, Plan{Drop: 0.3, Duplicate: 0.2, JitterMax: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	fork := in.Fork().(*Injector)
	for k := uint64(0); k < 1000; k++ {
		if a, b := fmt.Sprint(fork.Deliveries("k", k, 0, 1, 0, 1)), fmt.Sprint(in.Deliveries("k", k, 0, 1, 5, 1)); a != b {
			t.Fatalf("key %d: fork %s, parent %s", k, a, b)
		}
	}
	dropped, duplicated := fork.Dropped(), fork.Duplicated()
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("fixture too clean: %d dropped, %d duplicated", dropped, duplicated)
	}
	in.Join(fork)
	if in.Dropped() != 2*dropped || in.Duplicated() != 2*duplicated || fork.Dropped() != 0 || fork.Duplicated() != 0 {
		t.Fatalf("after Join: parent %d/%d, fork %d/%d, want parent %d/%d and an empty fork",
			in.Dropped(), in.Duplicated(), fork.Dropped(), fork.Duplicated(), 2*dropped, 2*duplicated)
	}
	if got := reg.Counter("faults.dropped").Value(); got != 2*dropped {
		t.Fatalf("faults.dropped = %d, want %d", got, 2*dropped)
	}
	for _, p := range []Plan{
		{Drop: 0.1, Partitions: []Partition{{From: 0, Until: 10, Side: []int{0}}}},
		{Drop: 0.1, Crashes: []Crash{{At: 5, Node: 0}}},
	} {
		in, err := New(3, p)
		if err != nil {
			t.Fatal(err)
		}
		if in.Fork() != nil {
			t.Fatalf("plan %+v forked", p)
		}
	}
}

// TestEmptyPlanPassthrough attaches an empty-plan injector and requires
// the run to stay byte-identical to one with no fault layer at all:
// same counts, same costs, same clock, and an untouched engine RNG.
func TestEmptyPlanPassthrough(t *testing.T) {
	runRing := func(attach bool) (*sim.Engine, int64) {
		eng := sim.NewEngine(7)
		r := chord.NewRing(eng, chord.Config{})
		for i := 0; i < 4; i++ {
			r.AddNode(-1, 100, 3)
		}
		if attach {
			in, err := New(7, Plan{})
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Attach(r); err != nil {
				t.Fatal(err)
			}
		}
		var delivered int64
		for i := 0; i < 50; i++ {
			i := i
			eng.DeliverEv("k", uint64(i), i%4, (i+1)%4, sim.Time(1+i%5), sim.Func(func() { delivered++ }))
		}
		eng.Run()
		return eng, delivered
	}
	engA, dA := runRing(false)
	engB, dB := runRing(true)
	if dA != dB {
		t.Fatalf("delivered %d without filter, %d with empty plan", dA, dB)
	}
	if engA.MessageCount("k") != engB.MessageCount("k") || engA.MessageCost("k") != engB.MessageCost("k") {
		t.Fatal("message accounting diverged under empty plan")
	}
	if engA.Now() != engB.Now() {
		t.Fatalf("clock diverged: %d vs %d", engA.Now(), engB.Now())
	}
	if engB.DroppedTotal() != 0 {
		t.Fatalf("empty plan dropped %d messages", engB.DroppedTotal())
	}
	if a, b := engA.Rand().Int63(), engB.Rand().Int63(); a != b {
		t.Fatal("engine RNG stream shifted by the fault layer")
	}
}

func TestDropRateAndAccounting(t *testing.T) {
	in, err := New(3, Plan{Drop: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	const offers = 20000
	delivered := 0
	for i := 0; i < offers; i++ {
		if len(in.Deliveries("k", uint64(i), 0, 1, 0, 1)) > 0 {
			delivered++
		}
	}
	frac := float64(offers-delivered) / offers
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("drop fraction %.3f far from 0.3", frac)
	}
	if got := in.Dropped(); got != int64(offers-delivered) {
		t.Fatalf("Dropped() = %d, want %d", got, offers-delivered)
	}
}

func TestDropByKindOverride(t *testing.T) {
	in, err := New(3, Plan{DropByKind: map[string]float64{"doomed": 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if len(in.Deliveries("doomed", uint64(i), 0, 1, 0, 1)) != 0 {
			t.Fatal("kind with rate 1 survived")
		}
		if len(in.Deliveries("fine", uint64(i), 0, 1, 0, 1)) != 1 {
			t.Fatal("kind with base rate 0 was dropped or duplicated")
		}
	}
}

func TestDuplicationAndJitter(t *testing.T) {
	in, err := New(9, Plan{Duplicate: 1, JitterMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	sawNonzero := false
	for i := 0; i < 500; i++ {
		out := in.Deliveries("k", uint64(i), 0, 1, 0, 1)
		if len(out) != 2 {
			t.Fatalf("Duplicate=1 produced %d copies", len(out))
		}
		for _, extra := range out {
			if extra < 0 || extra > 5 {
				t.Fatalf("jitter %d outside [0,5]", extra)
			}
			if extra > 0 {
				sawNonzero = true
			}
		}
	}
	if !sawNonzero {
		t.Fatal("JitterMax=5 never produced nonzero jitter")
	}
	if in.Duplicated() != 500 {
		t.Fatalf("Duplicated() = %d, want 500", in.Duplicated())
	}
}

func TestPartitionWindow(t *testing.T) {
	in, err := New(1, Plan{Partitions: []Partition{{From: 10, Until: 20, Side: []int{0, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src, dst int
		now      sim.Time
		want     int
	}{
		{0, 1, 15, 0},          // cross-cut, inside window
		{1, 0, 15, 0},          // cut is bidirectional
		{0, 2, 15, 1},          // same side
		{1, 3, 15, 1},          // both outside the side
		{0, 1, 5, 1},           // before the window
		{0, 1, 20, 1},          // window is half-open
		{sim.NoNode, 1, 15, 1}, // no src identity: passes
		{0, sim.NoNode, 15, 1}, // no dst identity: passes
	}
	for i, c := range cases {
		if got := len(in.Deliveries("k", uint64(i), c.src, c.dst, c.now, 1)); got != c.want {
			t.Errorf("case %d (%d->%d at %d): %d copies, want %d", i, c.src, c.dst, c.now, got, c.want)
		}
	}
}

// TestCrashRestart crashes a node mid-run and requires its replacement
// to rejoin with the same underlay position, capacity and VS count,
// with ring invariants intact throughout.
func TestCrashRestart(t *testing.T) {
	eng := sim.NewEngine(5)
	r := chord.NewRing(eng, chord.Config{})
	for i := 0; i < 4; i++ {
		r.AddNode(-1, 50+float64(i), 4)
	}
	in, err := New(5, Plan{Crashes: []Crash{
		{At: 100, Node: 1, Restart: 250},
		{At: 120, Node: 3}, // stays down
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(r); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(150)
	alive := 0
	for _, n := range r.Nodes() {
		if n.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Fatalf("after crashes: %d alive nodes, want 2", alive)
	}
	if in.Crashes() != 2 || in.Restarts() != 0 {
		t.Fatalf("mid-run: crashes=%d restarts=%d", in.Crashes(), in.Restarts())
	}
	eng.Run()
	if in.Restarts() != 1 {
		t.Fatalf("restarts=%d, want 1", in.Restarts())
	}
	nodes := r.Nodes()
	reborn := nodes[len(nodes)-1]
	if !reborn.Alive || reborn.Capacity != 51 || reborn.Underlay != -1 {
		t.Fatalf("replacement node wrong: alive=%v capacity=%v underlay=%v",
			reborn.Alive, reborn.Capacity, reborn.Underlay)
	}
	if got := len(reborn.VServers()); got != 4 {
		t.Fatalf("replacement hosts %d VSs, want 4", got)
	}
	r.CheckInvariants()

	// Crashing an index that no longer exists or is already dead is a
	// no-op, not a panic.
	in2, err := New(6, Plan{Crashes: []Crash{{At: 1, Node: 99}, {At: 2, Node: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := r.Engine()
	_ = eng2
	in.Detach()
	if err := in2.Attach(r); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if in2.Crashes() != 0 {
		t.Fatalf("stale crash plan executed %d crashes, want 0", in2.Crashes())
	}
}

func TestDomainCut(t *testing.T) {
	g, err := topology.Generate(topology.TS5kSmall(11))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(11)
	r := chord.NewRing(eng, chord.Config{})
	stubs := g.StubNodes()
	for i := 0; i < 40; i++ {
		r.AddNode(stubs[(i*37)%len(stubs)], 100, 2)
	}
	side := DomainCut(g, r, 0)
	if len(side) == 0 {
		t.Fatal("cutting transit domain 0 isolated nobody")
	}
	inSide := make(map[int]bool, len(side))
	for _, idx := range side {
		inSide[idx] = true
	}
	for _, n := range r.Nodes() {
		if g.Node(n.Underlay).Domain == 0 && !inSide[n.Index] {
			t.Fatalf("node %d sits in the failed domain but is not on the cut side", n.Index)
		}
	}
	if len(side) == len(r.Nodes()) {
		t.Fatal("cut swallowed the whole ring — no surviving side")
	}
}

// TestInjectorPerTrialRace exercises the documented deployment pattern
// under -race: one engine + one injector per goroutine, no sharing.
func TestInjectorPerTrialRace(t *testing.T) {
	var wg sync.WaitGroup
	for trial := 0; trial < 4; trial++ {
		trial := trial
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine(int64(trial))
			r := chord.NewRing(eng, chord.Config{})
			for i := 0; i < 3; i++ {
				r.AddNode(-1, 100, 2)
			}
			in, err := New(int64(trial), Plan{Drop: 0.1, JitterMax: 3})
			if err != nil {
				t.Error(err)
				return
			}
			if err := in.Attach(r); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				eng.DeliverEv("k", uint64(i), i%3, (i+1)%3, 2, sim.Func(func() {}))
			}
			eng.Run()
		}()
	}
	wg.Wait()
}
