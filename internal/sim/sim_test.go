package sim

import (
	"fmt"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.ScheduleEv(10, Func(func() { order = append(order, 3) }))
	e.ScheduleEv(5, Func(func() { order = append(order, 2) }))
	e.ScheduleEv(0, Func(func() { order = append(order, 1) }))
	n := e.Run()
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("final time = %d, want 10", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.ScheduleEv(7, Func(func() { order = append(order, i) }))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.ScheduleEv(1, Func(func() {
		times = append(times, e.Now())
		e.ScheduleEv(2, Func(func() {
			times = append(times, e.Now())
			e.ScheduleEv(0, Func(func() { times = append(times, e.Now()) }))
		}))
	}))
	e.Run()
	want := []Time{1, 3, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestZeroDelayRunsAfterCurrentInstant(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.ScheduleEv(0, Func(func() {
		order = append(order, 1)
		e.ScheduleEv(0, Func(func() { order = append(order, 3) }))
	}))
	e.ScheduleEv(0, Func(func() { order = append(order, 2) }))
	e.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	NewEngine(1).ScheduleEv(-1, Func(func() {}))
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := map[Time]bool{}
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.ScheduleEv(d, Func(func() { fired[d] = true }))
	}
	e.RunUntil(12)
	if !fired[5] || !fired[10] || fired[15] || fired[20] {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if !fired[15] || !fired[20] || e.Pending() != 0 {
		t.Fatal("remaining events not drained")
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var cancel func()
	cancel = e.Every(10, func() {
		count++
		if count == 5 {
			cancel()
		}
	})
	e.RunUntil(1000)
	if count != 5 {
		t.Fatalf("periodic fired %d times, want 5 (cancel failed?)", count)
	}
	if e.Now() != 1000 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestEveryInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) should panic")
		}
	}()
	NewEngine(1).Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, int64(e.Now()))
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				d := Time(e.Rand().Intn(10))
				e.ScheduleEv(d, Func(func() { spawn(depth - 1) }))
			}
		}
		e.ScheduleEv(0, Func(func() { spawn(4) }))
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMessageAccounting(t *testing.T) {
	e := NewEngine(1)
	e.CountMessage("lookup", 3)
	e.CountMessage("lookup", 5)
	e.CountMessage("heartbeat", 1)
	if e.MessageCount("lookup") != 2 || e.MessageCost("lookup") != 8 {
		t.Fatalf("lookup stats: %d/%d", e.MessageCount("lookup"), e.MessageCost("lookup"))
	}
	if e.TotalMessages() != 3 {
		t.Fatalf("TotalMessages = %d", e.TotalMessages())
	}
	kinds := e.MessageKinds()
	if len(kinds) != 2 || kinds[0] != "heartbeat" || kinds[1] != "lookup" {
		t.Fatalf("kinds = %v", kinds)
	}
	e.ResetMessageStats()
	if e.TotalMessages() != 0 || e.MessageCount("lookup") != 0 {
		t.Fatal("reset failed")
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.ScheduleEv(Time(i), Func(func() {}))
	}
	if e.Executed() != 0 {
		t.Fatal("Executed before run should be 0")
	}
	e.Run()
	if e.Executed() != 10 {
		t.Fatalf("Executed = %d", e.Executed())
	}
}

// TestAbsorb: a side engine's events and message tallies land on the
// root exactly once, however often the side engine is reused.
func TestAbsorb(t *testing.T) {
	root, side := NewEngine(1), NewEngine(2)
	root.CountMessage("pull", 2)
	for round := 1; round <= 2; round++ {
		side.DeliverEv("pull", 0, 0, 1, 3, Func(func() {}))
		side.DeliverEv("reply", 0, 1, 0, 4, Func(func() {}))
		side.Run()
		root.Absorb(side)
		if side.Executed() != 0 || side.TotalMessages() != 0 {
			t.Fatalf("round %d: side engine kept %d events, %d messages", round, side.Executed(), side.TotalMessages())
		}
		if got, want := root.Executed(), uint64(2*round); got != want {
			t.Fatalf("round %d: root Executed = %d, want %d", round, got, want)
		}
	}
	if root.MessageCount("pull") != 3 || root.MessageCost("pull") != 8 ||
		root.MessageCount("reply") != 2 || root.MessageCost("reply") != 8 {
		t.Fatalf("tallies: pull %d/%d reply %d/%d", root.MessageCount("pull"), root.MessageCost("pull"),
			root.MessageCount("reply"), root.MessageCost("reply"))
	}
}

// dropFilter drops every message of one kind and counts what it
// dropped; it forks into instances that count on their own.
type dropFilter struct {
	kind    string
	dropped int64
}

func (f *dropFilter) Deliveries(kind string, key uint64, src, dst int, now, cost Time) []Time {
	if kind == f.kind {
		f.dropped++
		return nil
	}
	return []Time{0}
}

func (f *dropFilter) Fork() MessageFilter { return &dropFilter{kind: f.kind} }

func (f *dropFilter) Join(fork MessageFilter) {
	w := fork.(*dropFilter)
	f.dropped += w.dropped
	w.dropped = 0
}

// TestAbsorbFoldsDrops: a filtered side engine's per-kind drop counts
// land on the parent exactly once and are zeroed on the side engine, and
// the parent's ForkFilter takes back its fork's counters through Join.
func TestAbsorbFoldsDrops(t *testing.T) {
	root, side := NewEngine(1), NewEngine(2)
	parent := &dropFilter{kind: "lost"}
	root.SetFilter(parent)
	fork := parent.Fork().(*dropFilter)
	side.SetFilter(fork)
	root.DeliverEv("lost", 1, 0, 1, 2, Func(func() {}))
	for round := int64(1); round <= 2; round++ {
		side.DeliverEv("lost", 2, 0, 1, 3, Func(func() {}))
		side.DeliverEv("lost", 3, 1, 0, 3, Func(func() {}))
		side.DeliverEv("kept", 4, 0, 1, 3, Func(func() {}))
		side.Run()
		root.Absorb(side)
		if side.DroppedTotal() != 0 || side.DroppedCount("lost") != 0 || fork.dropped != 0 {
			t.Fatalf("round %d: side engine kept %d drops (%d of kind), fork %d",
				round, side.DroppedTotal(), side.DroppedCount("lost"), fork.dropped)
		}
		want := 1 + 2*round
		if root.DroppedCount("lost") != want || root.DroppedTotal() != want || root.DroppedCount("kept") != 0 {
			t.Fatalf("round %d: root drops %d of kind, %d total, want %d", round, root.DroppedCount("lost"), root.DroppedTotal(), want)
		}
		if parent.dropped != want {
			t.Fatalf("round %d: parent filter counted %d drops, want %d", round, parent.dropped, want)
		}
	}
	if root.MessageCount("kept") != 2 {
		t.Fatalf("kept messages: %d, want 2", root.MessageCount("kept"))
	}
}

// TestDraining: only Run drains; Step and RunUntil return to their
// caller between events, and a nested Run restores the outer state.
func TestDraining(t *testing.T) {
	e := NewEngine(1)
	var seen []bool
	probe := func() { seen = append(seen, e.Draining()) }
	e.ScheduleEv(1, Func(probe))
	e.Step()
	e.ScheduleEv(1, Func(probe))
	e.RunUntil(e.Now() + 1)
	e.ScheduleEv(1, Func(probe))
	e.ScheduleEv(2, Func(func() {
		e.ScheduleEv(1, Func(probe))
		e.Run() // nested: drains the probe, then the outer Run resumes
		probe()
	}))
	e.Run()
	want := []bool{false, false, true, true, true}
	if fmt.Sprint(seen) != fmt.Sprint(want) || e.Draining() {
		t.Fatalf("Draining inside events = %v (after Run %v), want %v", seen, e.Draining(), want)
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.ScheduleEv(Time(i%64), Func(func() {}))
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// recordingFilter scripts Deliveries outcomes and records offers.
type recordingFilter struct {
	script map[string][]Time // per-kind copies; missing kind = one clean copy
	offers []string
}

func (f *recordingFilter) Deliveries(kind string, key uint64, src, dst int, now, cost Time) []Time {
	f.offers = append(f.offers, kind)
	if copies, ok := f.script[kind]; ok {
		return copies
	}
	return []Time{0}
}

func TestDeliverWithoutFilterMatchesCountPlusSchedule(t *testing.T) {
	// The two engines must produce identical event order, counts and
	// costs: DeliverEv with no filter IS the CountMessage+ScheduleEv pair.
	a, b := NewEngine(1), NewEngine(1)
	var orderA, orderB []int
	for i := 0; i < 5; i++ {
		i := i
		a.CountMessage("k", Time(3+i))
		a.ScheduleEv(Time(3+i), Func(func() { orderA = append(orderA, i) }))
		b.DeliverEv("k", 0, 0, 1, Time(3+i), Func(func() { orderB = append(orderB, i) }))
	}
	a.Run()
	b.Run()
	if len(orderA) != len(orderB) {
		t.Fatalf("event counts differ: %d vs %d", len(orderA), len(orderB))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("event order differs at %d: %v vs %v", i, orderA, orderB)
		}
	}
	if a.MessageCount("k") != b.MessageCount("k") || a.MessageCost("k") != b.MessageCost("k") {
		t.Fatal("message accounting differs")
	}
	if b.DroppedTotal() != 0 {
		t.Fatal("no filter, nothing may be dropped")
	}
}

func TestDeliverDropDupJitter(t *testing.T) {
	e := NewEngine(1)
	f := &recordingFilter{script: map[string][]Time{
		"drop": nil,
		"dup":  {0, 0},
		"jit":  {7},
	}}
	e.SetFilter(f)
	ran := map[string]int{}
	at := map[string]Time{}
	for _, k := range []string{"drop", "dup", "jit", "clean"} {
		k := k
		e.DeliverEv(k, 0, 0, 1, 2, Func(func() { ran[k]++; at[k] = e.Now() }))
	}
	e.Run()
	if ran["drop"] != 0 || e.DroppedCount("drop") != 1 || e.MessageCount("drop") != 0 {
		t.Errorf("drop: ran=%d dropped=%d counted=%d", ran["drop"], e.DroppedCount("drop"), e.MessageCount("drop"))
	}
	if ran["dup"] != 2 || e.MessageCount("dup") != 2 {
		t.Errorf("dup: ran=%d counted=%d", ran["dup"], e.MessageCount("dup"))
	}
	if ran["jit"] != 1 || at["jit"] != 9 || e.MessageCost("jit") != 9 {
		t.Errorf("jit: ran=%d at=%d cost=%d", ran["jit"], at["jit"], e.MessageCost("jit"))
	}
	if ran["clean"] != 1 || at["clean"] != 2 {
		t.Errorf("clean: ran=%d at=%d", ran["clean"], at["clean"])
	}
	if got := len(f.offers); got != 4 {
		t.Errorf("filter saw %d offers, want 4", got)
	}
	if e.DroppedTotal() != 1 {
		t.Errorf("DroppedTotal = %d", e.DroppedTotal())
	}
}

func TestDeliverNegativeExtraClamped(t *testing.T) {
	e := NewEngine(1)
	e.SetFilter(&recordingFilter{script: map[string][]Time{"k": {-5}}})
	var fired Time = -1
	e.DeliverEv("k", 0, 0, 1, 4, Func(func() { fired = e.Now() }))
	e.Run()
	if fired != 4 {
		t.Fatalf("negative extra latency must clamp to 0: fired at %d", fired)
	}
}
