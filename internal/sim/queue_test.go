package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// refEvent / refQueue is a reference implementation of the engine's
// firing contract — a straight container/heap ordered by (at, seq) with
// canceled entries skipped at pop — used by the property test to check
// the timer wheel against an independently implemented oracle.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	canceled *bool
}

type refQueue []refEvent

func (h refQueue) Len() int { return len(h) }
func (h refQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refQueue) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refQueue) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = refEvent{}
	*h = old[:n-1]
	return x
}

// peekLive discards canceled events at the top and returns the next
// live one without removing it.
func (h *refQueue) peekLive() (refEvent, bool) {
	for h.Len() > 0 {
		if ev := (*h)[0]; ev.canceled == nil || !*ev.canceled {
			return ev, true
		}
		heap.Pop(h)
	}
	return refEvent{}, false
}

// popLive removes and returns the next non-canceled event.
func (h *refQueue) popLive() (refEvent, bool) {
	ev, ok := h.peekLive()
	if ok {
		heap.Pop(h)
	}
	return ev, ok
}

func (h *refQueue) liveLen() int {
	n := 0
	for _, ev := range *h {
		if ev.canceled == nil || !*ev.canceled {
			n++
		}
	}
	return n
}

// firing is one callback run: which event, at what virtual time.
type firing struct {
	id int
	at Time
}

// armedTimer is a timer the harness may still cancel.
type armedTimer struct {
	timer           Timer
	canceled, fired *bool
}

// queueHarness drives an engine and the reference heap through the same
// operations and fails at the first disagreement in firing order
// (including FIFO order among equal timestamps), firing time, Cancel
// outcome or Pending.
type queueHarness struct {
	tb     testing.TB
	e      *Engine
	ref    refQueue
	refSeq uint64
	nextID int
	got    []firing // engine firings, in order
	timers []armedTimer
}

func newQueueHarness(tb testing.TB) *queueHarness {
	return &queueHarness{tb: tb, e: NewEngine(1)}
}

// schedule enqueues one event delay ticks ahead, as a cancelable timer
// or a plain event.
func (h *queueHarness) schedule(delay Time, timer bool) {
	id := h.nextID
	h.nextID++
	h.refSeq++
	ev := refEvent{at: h.e.Now() + delay, seq: h.refSeq, id: id}
	if timer {
		canceled, fired := false, false
		tm := h.e.AfterEv(delay, Func(func() { h.got = append(h.got, firing{id, h.e.Now()}); fired = true }))
		ev.canceled = &canceled
		h.timers = append(h.timers, armedTimer{timer: tm, canceled: &canceled, fired: &fired})
	} else {
		h.e.ScheduleEv(delay, Func(func() { h.got = append(h.got, firing{id, h.e.Now()}) }))
	}
	heap.Push(&h.ref, ev)
}

// cancel cancels timers[i] and forgets it; fired timers stay listed
// until canceled, so Cancel's false answer is checked too.
func (h *queueHarness) cancel(i int) {
	lt := h.timers[i]
	want := !*lt.canceled && !*lt.fired
	*lt.canceled = true
	if got := h.e.Cancel(lt.timer); got != want {
		h.tb.Fatalf("Cancel = %v, reference says %v", got, want)
	}
	h.timers[i] = h.timers[len(h.timers)-1]
	h.timers = h.timers[:len(h.timers)-1]
}

// expect checks that the engine fired exactly want since got[from].
func (h *queueHarness) expect(from int, want []firing) {
	got := h.got[from:]
	if len(got) != len(want) {
		h.tb.Fatalf("fired %v, reference expects %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			h.tb.Fatalf("firing %d: %+v, reference expects %+v", i, got[i], want[i])
		}
	}
}

func (h *queueHarness) step() {
	from := len(h.got)
	ok := h.e.Step()
	want, wantOK := h.ref.popLive()
	if ok != wantOK {
		h.tb.Fatalf("Step = %v, reference %v", ok, wantOK)
	}
	if ok {
		h.expect(from, []firing{{want.id, want.at}})
	}
}

func (h *queueHarness) runUntil(deadline Time) {
	from, now := len(h.got), h.e.Now()
	h.e.RunUntil(deadline)
	var want []firing
	for {
		ev, ok := h.ref.peekLive()
		if !ok || ev.at > deadline {
			break
		}
		heap.Pop(&h.ref)
		want = append(want, firing{ev.id, ev.at})
	}
	h.expect(from, want)
	if h.e.Now() != max(now, deadline) {
		h.tb.Fatalf("RunUntil(%d) from %d left the clock at %d", deadline, now, h.e.Now())
	}
}

func (h *queueHarness) checkPending() {
	if got, want := h.e.Pending(), h.ref.liveLen(); got != want {
		h.tb.Fatalf("Pending = %d, reference %d", got, want)
	}
}

// drain steps both queues until the reference is empty, then checks the
// engine is empty too.
func (h *queueHarness) drain() {
	for {
		if _, ok := h.ref.peekLive(); !ok {
			break
		}
		h.step()
	}
	if h.e.Step() {
		h.tb.Fatalf("engine has events after reference drained")
	}
}

// TestQueuePropertyVsReferenceHeap drives the wheel/far-heap queue and
// the reference heap with identical random schedule/cancel/step
// sequences. Delays are drawn across three regimes (same-tick, in-wheel,
// beyond the wheel horizon) so migration and the far heap are exercised.
// Two compound operations reach the chunked buckets: a burst of more
// than a chunk of events at one tick, interleaved with cancels and
// steps, so chunk boundaries are crossed in push and pop; and arming
// timers at one tick, canceling all of them and scheduling there again,
// so a released bucket is re-occupied in seq order.
func TestQueuePropertyVsReferenceHeap(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		t.Run(fmt.Sprintf("seed%d", 1000+trial), func(t *testing.T) { queueProperty(t, int64(1000+trial)) })
	}
}

func queueProperty(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	h := newQueueHarness(t)

	delay := func() Time {
		switch r.Intn(3) {
		case 0:
			return Time(r.Intn(4)) // same/near tick: FIFO ties
		case 1:
			return Time(r.Intn(wheelSize - 1)) // in the wheel
		default:
			return Time(r.Intn(3*wheelSize) + wheelSize) // far heap
		}
	}
	cancelRandom := func() {
		if len(h.timers) > 0 {
			h.cancel(r.Intn(len(h.timers)))
		}
	}
	// delayTo is the delay that lands on tick at, or now once the
	// clock has passed it.
	delayTo := func(at Time) Time { return max(at-h.e.Now(), 0) }

	burst := func() {
		at := h.e.Now() + Time(r.Intn(3))
		for i := chunkEvents + r.Intn(2*chunkEvents); i > 0; i-- {
			h.schedule(delayTo(at), r.Intn(2) == 0)
			switch r.Intn(8) {
			case 0:
				cancelRandom()
			case 1:
				h.step()
			}
		}
	}
	reoccupy := func() {
		at := h.e.Now() + delay()
		n := 1 + r.Intn(2*chunkEvents)
		for i := 0; i < n; i++ {
			h.schedule(delayTo(at), true)
		}
		// The n timers are the tail of h.timers; cancel them in
		// random order, swap-removing within the tail.
		for k := n; k > 0; k-- {
			h.cancel(len(h.timers) - 1 - r.Intn(k))
		}
		for i := 1 + r.Intn(chunkEvents); i > 0; i-- {
			h.schedule(delayTo(at), r.Intn(2) == 0)
		}
	}

	for op := 0; op < 3000; op++ {
		switch x := r.Intn(100); {
		case x < 40:
			h.schedule(delay(), r.Intn(2) == 0)
		case x < 50:
			cancelRandom()
		case x < 51:
			burst()
		case x < 52:
			reoccupy()
		default:
			h.step()
		}
		h.checkPending()
	}
	h.drain()
}

// FuzzQueueVsReference decodes data into a script of schedule, AfterEv,
// Cancel, Step and RunUntil operations and plays it against the queue
// and the reference heap (see queueHarness for what must agree). Each
// operation is one byte, op = b%5 with a repeat count 1+b/5%32 for the
// schedulers, followed by its operands: two bytes of delay for the
// schedulers and RunUntil, one byte of timer index for Cancel.
func FuzzQueueVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newQueueHarness(t)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// delay covers the same regimes as the property test: the low
		// two bits pick near ties, the wheel or the far heap.
		delay := func() Time {
			v := Time(next())<<8 | Time(next())
			switch v & 3 {
			case 0, 1:
				return v >> 2 & 3
			case 2:
				return v
			default:
				return wheelSize + 3*v
			}
		}
		for len(data) > 0 {
			b := next()
			switch op, n := b%5, 1+int(b/5%32); op {
			case 0, 1:
				d := delay()
				for i := 0; i < n; i++ {
					h.schedule(d, op == 1)
				}
			case 2:
				if i := int(next()); len(h.timers) > 0 {
					h.cancel(i % len(h.timers))
				}
			case 3:
				h.step()
			case 4:
				h.runUntil(h.e.Now() + delay())
			}
			h.checkPending()
		}
		h.drain()
	})
}

// TestFarMigrationPreservesSeqOrder pins the tie-break across the
// far→wheel migration boundary: an event scheduled for tick T while T
// was beyond the horizon must fire before an event scheduled directly
// into T's bucket later (smaller seq first), matching the heap
// semantics.
func TestFarMigrationPreservesSeqOrder(t *testing.T) {
	e := NewEngine(1)
	target := Time(wheelSize + 100)
	var order []int
	e.ScheduleEv(target, Func(func() { order = append(order, 1) })) // parks far
	e.ScheduleEv(200, Func(func() {
		// Clock is at 200: target is now inside the horizon, so this
		// lands in the same bucket behind the migrated event.
		e.ScheduleEv(target-200, Func(func() { order = append(order, 2) }))
	}))
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("cross-horizon same-tick order = %v, want [1 2]", order)
	}
}

// TestQueueZeroesVacatedSlots is the white-box half of the old
// eventHeap.Pop leak fix: after events fire (or timers are canceled),
// every bucket is empty, every slot of every free chunk, every vacated
// far-heap slot and every timer-arena slot is zeroed, so dead callbacks
// are not pinned for the life of the run.
func TestQueueZeroesVacatedSlots(t *testing.T) {
	e := NewEngine(1)
	// Near events, several per tick and more than a chunk at tick 2,
	// plus far events and canceled timers in both regions — including a
	// bucket released at Cancel and one whose canceled timer is skipped
	// as stale.
	var obj nopEventer
	for i := 0; i < 3*chunkEvents; i++ {
		e.ScheduleEv(Time(i%7), Func(func() {}))
		e.ScheduleEv(Time(wheelSize+i), Func(func() {}))
		e.ScheduleEv(Time(i%5), &obj)
	}
	nearT := e.AfterEv(3, Func(func() {}))
	farT := e.AfterEv(wheelSize+5000, Func(func() {}))
	nearTE := e.AfterEv(4, &obj)
	var alone [chunkEvents + 1]Timer
	for i := range alone {
		alone[i] = e.AfterEv(100, Func(func() {}))
	}
	e.Cancel(nearT)
	e.Cancel(farT)
	e.Cancel(nearTE)
	for _, tm := range alone {
		e.Cancel(tm)
	}
	e.Run()

	q := &e.q
	for i := range q.buckets {
		if b := q.buckets[i]; b != (bucket{}) {
			t.Fatalf("bucket %d not empty: %+v", i, b)
		}
	}
	for w := range q.occ {
		if q.occ[w] != 0 {
			t.Fatalf("occupancy word %d still set: %#x", w, q.occ[w])
		}
	}
	free := 0
	for c := q.free; c != nil; c = c.next {
		for j := range c.evs {
			if !zeroEvent(&c.evs[j]) {
				t.Fatalf("free chunk %d slot %d not zeroed: %+v", free, j, c.evs[j])
			}
		}
		free++
	}
	if free == 0 || free%chunkBlock != 0 {
		t.Fatalf("free list holds %d chunks, want every chunk of its %d-chunk blocks", free, chunkBlock)
	}
	if len(q.far) != 0 {
		t.Fatalf("far heap not drained: %d", len(q.far))
	}
	farFull := q.far[:cap(q.far)]
	for j := range farFull {
		if !zeroEvent(&farFull[j]) {
			t.Fatalf("far slot %d not zeroed: %+v", j, farFull[j])
		}
	}
	for i := range q.timers {
		s := &q.timers[i]
		if s.armed || s.ev != nil {
			t.Fatalf("timer slot %d still armed/pinning: %+v", i, s)
		}
	}
}

// zeroEvent reports whether ev is the zero event.
func zeroEvent(ev *event) bool {
	return ev.at == 0 && ev.seq == 0 && ev.ev == nil && ev.slot == 0 && ev.gen == 0
}

// chunksHeld counts the chunks a queue holds, free or in a bucket, and
// the buckets that are occupied.
func chunksHeld(q *eventQueue) (held, occupied int) {
	for c := q.free; c != nil; c = c.next {
		held++
	}
	for i := range q.buckets {
		if q.buckets[i].head != nil {
			occupied++
		}
		for c := q.buckets[i].head; c != nil; c = c.next {
			held++
		}
	}
	return held, occupied
}

// liveHeap returns the bytes reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWheelHoldsWhatIsPending: the serve pattern costs what is pending,
// not what was ever armed. Each cycle a round arms a wave of epoch
// timers across future ticks, messages flow, every timer is canceled
// long before it is due, and the clock steps on by less than the
// timers' reach. A periodic ticker keeps a live event ahead of the
// clock, as serve's round tick does, so nothing drains the wheel
// between cycles. The live heap at cycle 20 is where cycle 2 left it,
// and the chunks the queue holds are bounded by the peak of pending
// events: one partial chunk per occupied bucket, rounded up to whole
// refill blocks.
func TestWheelHoldsWhatIsPending(t *testing.T) {
	const (
		cycles  = 20
		timers  = 20000 // epoch timers armed per cycle
		ticks   = 20    // distinct ticks they land on
		timeout = 2500  // spacing of those ticks
		msgs    = 2000  // messages delivered per cycle
		advance = 1000  // clock step per cycle
	)
	e := NewEngine(1)
	fn := Func(func() {})
	var obj nopEventer
	wave := make([]Timer, timers)
	stop := e.Every(advance/10, fn)
	defer stop()
	var peakPending, peakOccupied int
	var at2, at20 uint64
	for cycle := 1; cycle <= cycles; cycle++ {
		for i := range wave {
			wave[i] = e.AfterEv(Time(timeout*(1+i%ticks)), &obj)
		}
		for i := 0; i < msgs; i++ {
			e.DeliverEv("msg", 0, 0, 1, Time(1+i%50), fn)
		}
		_, occupied := chunksHeld(&e.q)
		peakPending = max(peakPending, e.Pending())
		peakOccupied = max(peakOccupied, occupied)
		for _, tm := range wave {
			if !e.Cancel(tm) {
				t.Fatalf("cycle %d: an armed epoch timer did not cancel", cycle)
			}
		}
		e.RunUntil(e.Now() + advance)
		switch cycle {
		case 2:
			at2 = liveHeap()
		case cycles:
			at20 = liveHeap()
		}
	}
	if obj.fired != 0 {
		t.Fatalf("%d canceled timers fired", obj.fired)
	}
	t.Logf("live heap %.2f MB after cycle 2, %.2f MB after cycle %d", float64(at2)/(1<<20), float64(at20)/(1<<20), cycles)
	if float64(at20) > 1.05*float64(at2) {
		t.Errorf("live heap grew from %d to %d bytes over cycles 2–%d, more than 5%%", at2, at20, cycles)
	}
	held, _ := chunksHeld(&e.q)
	need := (peakPending+chunkEvents-1)/chunkEvents + peakOccupied
	bound := (need + chunkBlock - 1) / chunkBlock * chunkBlock
	t.Logf("%d chunks held for a peak of %d pending events in %d occupied buckets (bound %d)", held, peakPending, peakOccupied, bound)
	if held > bound {
		t.Errorf("queue holds %d chunks, bound %d", held, bound)
	}
	runtime.KeepAlive(e)
}

// nopEventer is a trivial sim.Eventer for scheduling-path tests.
type nopEventer struct{ fired int }

func (n *nopEventer) RunEvent() { n.fired++ }

// TestEventerOrdering checks ScheduleEv and AfterEv share one FIFO
// tie-break: at one instant, events fire in scheduling order
// regardless of which verb enqueued them.
func TestEventerOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	rec := func(i int) Func { return func() { order = append(order, i) } }
	e.ScheduleEv(5, rec(0))
	e.AfterEv(5, rec(1))
	e.ScheduleEv(5, rec(2))
	e.AfterEv(5, rec(3))
	e.ScheduleEv(5, rec(4))
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("interleaved ScheduleEv/AfterEv order = %v, want 0..4 in place", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d of 5 events", len(order))
	}
}

// TestFuncSchedulesWithoutAllocating: a prebuilt Func goes through
// ScheduleEv, and through AfterEv and Cancel, and fires at no
// allocation once the queue's storage is warm, and one callback field
// keeps an event and a timer slot at 40 bytes.
func TestFuncSchedulesWithoutAllocating(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 40 {
		t.Errorf("event is %d bytes, want <= 40", sz)
	}
	if sz := unsafe.Sizeof(timerSlot{}); sz > 40 {
		t.Errorf("timerSlot is %d bytes, want <= 40", sz)
	}
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	e := NewEngine(1)
	fired := 0
	fn := Func(func() { fired++ })
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleEv(1, fn)
		e.Cancel(e.AfterEv(2, fn))
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("ScheduleEv + AfterEv + Cancel + Step made %.1f allocations, want 0", allocs)
	}
	if fired != 101 { // AllocsPerRun adds one warm-up run
		t.Errorf("fired %d events, want 101", fired)
	}
}

func TestAfterCancelSemantics(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.AfterEv(10, Func(func() { fired++ }))
	if !e.Cancel(tm) {
		t.Fatal("first Cancel of a pending timer must report true")
	}
	if e.Cancel(tm) {
		t.Fatal("second Cancel must report false")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel, want 0", e.Pending())
	}
	e.Run()
	if fired != 0 {
		t.Fatal("canceled timer fired")
	}

	// Cancel after fire reports false; zero Timer is a no-op.
	tm = e.AfterEv(5, Func(func() { fired++ }))
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if e.Cancel(tm) {
		t.Fatal("Cancel after fire must report false")
	}
	if e.Cancel(Timer{}) {
		t.Fatal("Cancel of zero Timer must report false")
	}

	// Slot reuse must not resurrect old handles: the recycled slot's
	// generation differs, so the stale handle cancels nothing.
	stale := e.AfterEv(10, Func(func() {}))
	e.Cancel(stale)
	ran := false
	fresh := e.AfterEv(10, Func(func() { ran = true }))
	if e.Cancel(stale) {
		t.Fatal("stale handle must not cancel the recycled slot")
	}
	e.Run()
	if !ran {
		t.Fatal("fresh timer on recycled slot did not fire")
	}
	_ = fresh
}

// TestCancelFarTimer pins eager removal from the far heap: canceling a
// timer parked beyond the wheel horizon drops it from the queue
// immediately (Pending) and it never fires.
func TestCancelFarTimer(t *testing.T) {
	e := NewEngine(1)
	fired := []int{}
	keep := func(id int) func() { return func() { fired = append(fired, id) } }
	t1 := e.AfterEv(wheelSize+10, Func(keep(1)))
	_ = e.AfterEv(wheelSize+20, Func(keep(2)))
	t3 := e.AfterEv(3*wheelSize+7, Func(keep(3)))
	e.Cancel(t1)
	e.Cancel(t3)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
	if e.Now() != wheelSize+20 {
		t.Fatalf("Now = %d", e.Now())
	}
}

// TestResetMessageStatsClearsDropped is the regression test for the
// drop-count leak: ResetMessageStats cleared msgCount/msgCost but not
// dropped, so experiment phases double-reported drops.
func TestResetMessageStatsClearsDropped(t *testing.T) {
	e := NewEngine(1)
	e.SetFilter(&recordingFilter{script: map[string][]Time{"drop": nil}})
	e.DeliverEv("drop", 0, 0, 1, 2, Func(func() {}))
	e.DeliverEv("drop", 0, 0, 1, 2, Func(func() {}))
	if e.DroppedTotal() != 2 || e.DroppedCount("drop") != 2 {
		t.Fatalf("pre-reset drops = %d/%d", e.DroppedTotal(), e.DroppedCount("drop"))
	}
	e.ResetMessageStats()
	if e.DroppedTotal() != 0 || e.DroppedCount("drop") != 0 {
		t.Fatalf("ResetMessageStats leaked drop counts: total=%d kind=%d",
			e.DroppedTotal(), e.DroppedCount("drop"))
	}
	// Accounting keeps working after the reset.
	e.DeliverEv("drop", 0, 0, 1, 2, Func(func() {}))
	if e.DroppedTotal() != 1 {
		t.Fatalf("post-reset drops = %d, want 1", e.DroppedTotal())
	}
}

func TestEveryCancelReleasesTimer(t *testing.T) {
	e := NewEngine(1)
	count := 0
	cancel := e.Every(10, func() { count++ })
	e.RunUntil(35)
	cancel()
	if e.Pending() != 0 {
		t.Fatalf("canceled Every left %d pending events", e.Pending())
	}
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("Every fired %d times, want 3", count)
	}
}

func BenchmarkSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := Func(func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEv(Time(i%64), fn)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkStep(b *testing.B) {
	e := NewEngine(1)
	fn := Func(func() {})
	for i := 0; i < b.N; i++ {
		e.ScheduleEv(Time(i%64), fn)
	}
	b.ResetTimer()
	for e.Step() {
	}
}

func BenchmarkScheduleFar(b *testing.B) {
	e := NewEngine(1)
	fn := Func(func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEv(Time(wheelSize+i%5000), fn)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkAfterCancel(b *testing.B) {
	e := NewEngine(1)
	fn := Func(func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.AfterEv(Time(100+i%64), fn)
		e.Cancel(tm)
	}
}

func BenchmarkDeliver(b *testing.B) {
	e := NewEngine(1)
	fn := Func(func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DeliverEv("bench", 0, 0, 1, Time(i%8), fn)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkCanceledEpochTimers is the serve pattern, per op one epoch
// timer armed ticks ahead and one message delivered. Every 1024 ops the
// wave of timers is canceled and the clock steps on by less than their
// reach, as periodic rounds do, with a ticker keeping a live event
// ahead of the clock.
func BenchmarkCanceledEpochTimers(b *testing.B) {
	const wave = 1024
	e := NewEngine(1)
	fn := Func(func() {})
	defer e.Every(100, fn)()
	var timers [wave]Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers[i%wave] = e.AfterEv(Time(5000*(1+i%8)), fn)
		e.DeliverEv("bench", 0, 0, 1, Time(i%8), fn)
		if i%wave == wave-1 {
			for _, tm := range timers {
				e.Cancel(tm)
			}
			e.RunUntil(e.Now() + 500)
		}
	}
}
