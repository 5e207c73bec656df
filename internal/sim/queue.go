package sim

import "math/bits"

// The event queue is a bucketed timer wheel (calendar queue) keyed on
// the integer virtual clock, replacing the original container/heap of
// boxed closures:
//
//   - Events with at < now+wheelSize land in per-tick buckets — plain
//     []event arenas appended in Schedule order, so the (at, seq)
//     firing order of the old heap degenerates to FIFO within a bucket
//     and costs O(1) per push with no interface boxing and no sift.
//     Same-(dst, tick) Deliver callbacks therefore coalesce into one
//     contiguous bucket run instead of paying one heap op each.
//   - Events at or beyond the wheel horizon park in a far min-heap
//     (manual, concrete-typed) ordered by (at, seq). Every clock
//     advance eagerly migrates far events that entered the horizon
//     into their buckets. Migration pops in (at, seq) order and any
//     direct bucket push for a tick T can only happen after the clock
//     crossed T−wheelSize (when migration for T already ran), so
//     bucket order remains globally seq-ordered per tick.
//   - Cancelable timers (After/Cancel) live in a slot arena with
//     generation counters. A parked far timer is removed from the heap
//     eagerly on cancel (the arena tracks its heap index); a bucketed
//     timer is released in place and its event skipped as stale at pop
//     time via the generation check.
//   - Every vacated slot — bucket cursor advances, far-heap tail after
//     a pop or removal — is zeroed so dead closures are not pinned for
//     the life of the run (the old eventHeap.Pop leaked its tail).
//
// The wheel itself is allocated lazily on first push: engines that only
// seed RNGs (the closed-form Balancer's rings) never pay for it.
const (
	wheelBits = 16
	wheelSize = 1 << wheelBits // ticks covered by the near wheel
	wheelMask = wheelSize - 1
)

// event is one scheduled callback slot. Plain events carry a closure in
// fn or an object in ev (exactly one is set); timer-backed events (both
// nil) resolve through the timer arena, where slot/gen decide at pop
// time whether the timer is still armed.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	ev   Eventer
	slot int32 // timer arena index, -1 for plain events
	gen  uint32
}

// fire runs the event callback, whichever form it took.
//
//lbvet:hotpath
func (e *event) fire() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.ev.RunEvent()
}

// bucket holds all queued events of one tick, in seq order. next is the
// read cursor; slots behind it are zeroed.
type bucket struct {
	evs  []event
	next int
}

// timerSlot is one arena entry backing a cancelable timer.
type timerSlot struct {
	fn      func()
	ev      Eventer
	gen     uint32
	armed   bool
	heapIdx int32 // position in the far heap while parked there, else -1
	free    int32 // freelist link (index+1, 0 = end), meaningful only when !armed
}

// eventQueue is the timer wheel plus far heap plus timer arena. It has
// the same single-goroutine contract as the Engine that owns it.
type eventQueue struct {
	now     Time
	seq     uint64
	pending int // live (unfired, uncanceled) events

	buckets  []bucket // wheelSize ticks, lazily allocated
	occ      []uint64 // occupancy bitmap, one bit per bucket
	occSum   []uint64 // summary bitmap, one bit per occ word
	nearPhys int      // events physically parked in buckets (incl. stale)

	// spares recycles drained buckets' arrays. A run's events typically
	// span fewer ticks than the wheel covers, so each bucket index is
	// touched once and capacity retained in place would never be reused;
	// draining instead donates the (fully zeroed) array forward to
	// whichever bucket outgrows its capacity next. Pool entries are
	// always zero over their full capacity.
	spares [][]event

	far []event // min-heap by (at, seq); never holds canceled timers

	timers    []timerSlot
	freeTimer int32 // freelist head (index+1), 0 when empty
}

func (q *eventQueue) init() {
	q.buckets = make([]bucket, wheelSize)
	q.occ = make([]uint64, wheelSize/64)
	q.occSum = make([]uint64, wheelSize/64/64)
}

// push enqueues a callback at absolute time at. Exactly one of fn /
// (slot, gen) identifies the work: fn != nil for plain events, slot >= 0
// for arena-backed timers.
//
//lbvet:hotpath
func (q *eventQueue) push(at Time, fn func(), obj Eventer, slot int32, gen uint32) {
	if q.buckets == nil {
		q.init()
	}
	q.seq++
	ev := event{at: at, seq: q.seq, fn: fn, ev: obj, slot: slot, gen: gen}
	if at < q.now+wheelSize {
		q.pushNear(ev)
	} else {
		q.farPush(ev)
	}
	q.pending++
}

//lbvet:hotpath
func (q *eventQueue) pushNear(ev event) {
	idx := int(ev.at) & wheelMask
	b := &q.buckets[idx]
	if len(b.evs) == cap(b.evs) {
		q.grow(b)
	}
	n := len(b.evs)
	b.evs = b.evs[:n+1]
	b.evs[n] = ev
	q.nearPhys++
	q.occ[idx>>6] |= 1 << uint(idx&63)
	q.occSum[idx>>12] |= 1 << uint((idx>>6)&63)
}

// spareMin is the smallest array worth pooling; maxSpares bounds the
// pool so a pathological burst cannot pin unbounded memory.
const (
	spareMin  = 64
	maxSpares = 64
)

// grow is the cold half of pushNear: bucket capacity doubles off the
// hot path so the push itself never calls append. A recycled spare
// array (the largest that fits) is preferred over a fresh allocation —
// hot ticks move forward through the wheel, so the arrays drained
// behind the clock serve the buckets filling ahead of it. The outgrown
// array is discarded (it holds live copies, so it is not zero and must
// not enter the pool); the drain path donates the final array instead.
func (q *eventQueue) grow(b *bucket) {
	need := cap(b.evs) * 2
	if need < 8 {
		need = 8
	}
	best := -1
	if need >= spareMin {
		// Best fit: the smallest pooled array that suffices, so big
		// arrays stay available for the buckets that actually need
		// them. Small grows below spareMin never consult the pool.
		for i, sp := range q.spares {
			if cap(sp) >= need && (best < 0 || cap(sp) < cap(q.spares[best])) {
				best = i
			}
		}
	}
	if best >= 0 {
		evs := q.spares[best][:len(b.evs)]
		n := len(q.spares) - 1
		q.spares[best] = q.spares[n]
		q.spares[n] = nil
		q.spares = q.spares[:n]
		copy(evs, b.evs)
		b.evs = evs
		return
	}
	evs := make([]event, len(b.evs), need)
	copy(evs, b.evs)
	b.evs = evs
}

// donate is the cold drain path of consumeFront: the bucket's array —
// fully zeroed, every slot was consumed — moves into the spare pool.
func (q *eventQueue) donate(b *bucket) {
	q.spares = append(q.spares, b.evs[:0])
	b.evs = nil
}

// consumeFront vacates the bucket's cursor slot (zeroing it) and
// recycles the bucket when it drains: large arrays are donated to the
// spare pool, small ones keep their capacity in place.
//
//lbvet:hotpath
func (q *eventQueue) consumeFront(b *bucket, idx int) {
	b.evs[b.next] = event{}
	b.next++
	q.nearPhys--
	if b.next == len(b.evs) {
		if cap(b.evs) >= spareMin && len(q.spares) < maxSpares {
			q.donate(b)
		} else {
			b.evs = b.evs[:0]
		}
		b.next = 0
		w := idx >> 6
		q.occ[w] &^= 1 << uint(idx&63)
		if q.occ[w] == 0 {
			q.occSum[w>>6] &^= 1 << uint(w&63)
		}
	}
}

// nearTick returns the earliest occupied tick in [now, now+wheelSize).
// The caller guarantees nearPhys > 0.
//
//lbvet:hotpath
func (q *eventQueue) nearTick() Time {
	pos := int(q.now) & wheelMask
	if b := q.occ[pos>>6] >> uint(pos&63); b != 0 {
		return q.now + Time(bits.TrailingZeros64(b))
	}
	if i, ok := q.scanWords(pos>>6+1, len(q.occ)); ok {
		return q.now + Time(i-pos)
	}
	i, _ := q.scanWords(0, pos>>6+1)
	return q.now + Time(wheelSize-pos+i)
}

// scanWords returns the index of the first set occupancy bit whose word
// lies in [lo, hi), using the summary bitmap to skip empty words.
//
//lbvet:hotpath
func (q *eventQueue) scanWords(lo, hi int) (int, bool) {
	if lo >= hi {
		return 0, false
	}
	sw := lo >> 6
	s := q.occSum[sw] &^ (1<<uint(lo&63) - 1)
	for {
		if s != 0 {
			w := sw<<6 + bits.TrailingZeros64(s)
			if w >= hi {
				return 0, false
			}
			return w<<6 + bits.TrailingZeros64(q.occ[w]), true
		}
		sw++
		if sw<<6 >= hi {
			return 0, false
		}
		s = q.occSum[sw]
	}
}

// peek returns the firing time of the next live event without advancing
// the clock. Stale (canceled-timer) events at the front of the wheel are
// physically discarded on the way; the far heap never holds stale
// entries, so when the wheel is empty its top is the answer directly.
//
//lbvet:hotpath
func (q *eventQueue) peek() (Time, bool) {
	for q.nearPhys > 0 {
		t := q.nearTick()
		idx := int(t) & wheelMask
		b := &q.buckets[idx]
		ev := &b.evs[b.next]
		if ev.slot >= 0 {
			s := &q.timers[ev.slot]
			if !s.armed || s.gen != ev.gen {
				q.consumeFront(b, idx)
				continue
			}
		}
		return t, true
	}
	if len(q.far) > 0 {
		return q.far[0].at, true
	}
	return 0, false
}

// pop removes and returns the next live event's callback, advancing the
// clock to its timestamp (which migrates newly in-horizon far events
// into the wheel first).
//
//lbvet:hotpath
func (q *eventQueue) pop() (event, bool) {
	t, ok := q.peek()
	if !ok {
		return event{}, false
	}
	if t > q.now {
		q.advanceTo(t)
	}
	idx := int(t) & wheelMask
	b := &q.buckets[idx]
	ev := b.evs[b.next]
	q.consumeFront(b, idx)
	if ev.slot >= 0 {
		s := &q.timers[ev.slot]
		ev.fn, ev.ev = s.fn, s.ev
		q.releaseTimer(ev.slot)
	}
	q.pending--
	return ev, true
}

// advanceTo moves the clock to t (monotonically) and migrates every far
// event that entered the wheel horizon into its bucket. Migration pops
// the far heap in (at, seq) order, so per-tick FIFO order is preserved:
// direct pushes for those ticks can only happen after this migration.
//
//lbvet:hotpath
func (q *eventQueue) advanceTo(t Time) {
	q.now = t
	horizon := t + wheelSize
	for len(q.far) > 0 && q.far[0].at < horizon {
		ev := q.far[0]
		q.farRemove(0)
		q.pushNear(ev)
	}
}

// Far heap: a manual concrete-typed min-heap by (at, seq). The timer
// arena mirrors each parked timer's heap index so Cancel can remove it
// eagerly instead of leaving a stale entry to sift through later.

//lbvet:hotpath
func (q *eventQueue) farLess(i, j int) bool {
	a, b := &q.far[i], &q.far[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

//lbvet:hotpath
func (q *eventQueue) farSwap(i, j int) {
	q.far[i], q.far[j] = q.far[j], q.far[i]
	if s := q.far[i].slot; s >= 0 {
		q.timers[s].heapIdx = int32(i)
	}
	if s := q.far[j].slot; s >= 0 {
		q.timers[s].heapIdx = int32(j)
	}
}

//lbvet:hotpath
func (q *eventQueue) farUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.farLess(i, p) {
			break
		}
		q.farSwap(i, p)
		i = p
	}
}

//lbvet:hotpath
func (q *eventQueue) farDown(i int) {
	n := len(q.far)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.farLess(r, l) {
			m = r
		}
		if !q.farLess(m, i) {
			return
		}
		q.farSwap(i, m)
		i = m
	}
}

//lbvet:hotpath
func (q *eventQueue) farPush(ev event) {
	if len(q.far) == cap(q.far) {
		q.growFar()
	}
	n := len(q.far)
	q.far = q.far[:n+1]
	q.far[n] = ev
	if ev.slot >= 0 {
		q.timers[ev.slot].heapIdx = int32(n)
	}
	q.farUp(n)
}

// growFar is the cold half of farPush.
func (q *eventQueue) growFar() {
	c := cap(q.far) * 2
	if c < 16 {
		c = 16
	}
	far := make([]event, len(q.far), c)
	copy(far, q.far)
	q.far = far
}

// farRemove deletes the heap entry at index i, zeroing the vacated tail
// slot so dead closures are not pinned.
//
//lbvet:hotpath
func (q *eventQueue) farRemove(i int) {
	n := len(q.far) - 1
	if i != n {
		q.farSwap(i, n)
	}
	if s := q.far[n].slot; s >= 0 {
		q.timers[s].heapIdx = -1
	}
	q.far[n] = event{}
	q.far = q.far[:n]
	if i != n {
		q.farDown(i)
		q.farUp(i)
	}
}

// allocTimer arms a fresh arena slot holding the callback (closure or
// object form) and returns its index.
func (q *eventQueue) allocTimer(fn func(), ev Eventer) int32 {
	slot := q.freeTimer - 1
	if slot >= 0 {
		q.freeTimer = q.timers[slot].free
	} else {
		q.timers = append(q.timers, timerSlot{})
		slot = int32(len(q.timers) - 1)
	}
	s := &q.timers[slot]
	s.fn = fn
	s.ev = ev
	s.armed = true
	s.heapIdx = -1
	return slot
}

// releaseTimer disarms a slot and bumps its generation, so any event
// still referencing the old generation (a canceled timer parked in a
// bucket) is skipped as stale, even if the slot is reused meanwhile.
//
//lbvet:hotpath
func (q *eventQueue) releaseTimer(slot int32) {
	s := &q.timers[slot]
	s.fn = nil
	s.ev = nil
	s.armed = false
	s.gen++
	s.heapIdx = -1
	s.free = q.freeTimer
	q.freeTimer = slot + 1
}
