package sim

import "math/bits"

// The event queue is a bucketed timer wheel (calendar queue) keyed on
// the integer virtual clock, replacing the original container/heap of
// boxed closures:
//
//   - Events with at < now+wheelSize land in per-tick buckets, appended
//     in scheduling order, so the (at, seq) firing order of the old heap
//     degenerates to FIFO within a bucket and costs O(1) per push with
//     no interface boxing and no sift. Same-(dst, tick) DeliverEv
//     callbacks therefore coalesce into one contiguous bucket run
//     instead of paying one heap op each.
//   - A bucket is a FIFO list of fixed-size chunks borrowed from one
//     per-queue free list and returned as they drain, so what the wheel
//     holds follows the peak number of pending events, not the sum of
//     every tick's high-water mark. The free list refills in blocks and
//     never shrinks.
//   - Events at or beyond the wheel horizon park in a far min-heap
//     (manual, concrete-typed) ordered by (at, seq). Every clock
//     advance eagerly migrates far events that entered the horizon
//     into their buckets. Migration pops in (at, seq) order and any
//     direct bucket push for a tick T can only happen after the clock
//     crossed T−wheelSize (when migration for T already ran), so
//     bucket order remains globally seq-ordered per tick.
//   - Cancelable timers (AfterEv/Cancel) live in a slot arena with
//     generation counters. A parked far timer is removed from the heap
//     eagerly on cancel (the arena tracks its heap index). A bucketed
//     timer's slot records its tick, and each bucket counts its live
//     events: the Cancel (or pop) that takes a bucket's count to zero
//     returns its chunks to the free list at once. Canceled events in
//     a bucket that still holds live ones stay in place and are skipped
//     as stale at pop time via the generation check. Protocol epoch and
//     rto timers are nearly all canceled, many of them ticks ahead, so
//     this is what keeps their buckets from pinning chunks until their
//     tick comes round.
//   - Every vacated slot — bucket cursor advances, released buckets,
//     far-heap tail after a pop or removal — is zeroed so dead callbacks
//     are not pinned for the life of the run (the old eventHeap.Pop
//     leaked its tail), and a chunk on the free list is all zero.
//
// The wheel itself is allocated lazily on first push: engines that only
// seed RNGs (the closed-form Balancer's rings) never pay for it.
const (
	wheelBits = 16
	wheelSize = 1 << wheelBits // ticks covered by the near wheel
	wheelMask = wheelSize - 1
)

// chunkEvents sizes a chunk: 64 events, 2.5 KB. Every occupied tick holds
// at least one chunk, and every engine that queues anything holds one
// block of chunkBlock chunks (160 KB at 64), so the size is kept small.
// Its cost is the hop a pop makes into a bucket's next chunk, which is
// rarely adjacent in memory: BenchmarkStep, whose ticks hold tens of
// thousands of events, pops in 23 ns at 64, 21 ns at 256 and 20 ns when
// each tick's chunks happen to be adjacent (2-vCPU Xeon, go1.24).
// BenchmarkSchedule, AfterCancel and Deliver do not move between 32
// and 256.
const (
	chunkEvents = 64
	chunkBlock  = 64
)

// event is one scheduled callback slot. Plain events carry their
// callback in ev; timer-backed events (ev nil) resolve through the
// timer arena, where slot/gen decide at pop time whether the timer is
// still armed.
type event struct {
	at   Time
	seq  uint64
	ev   Eventer
	slot int32 // timer arena index, -1 for plain events
	gen  uint32
}

// chunk is a fixed run of bucket slots; next links a bucket's chunks
// in FIFO order, or the free list. A chunk on the free list is zero
// over all of evs.
type chunk struct {
	evs  [chunkEvents]event
	next *chunk
}

// bucket holds the queued events of one tick, in seq order: the next to
// pop is head.evs[rd], the next push goes to tail.evs[wr], and slots
// before rd are zeroed. live counts the events not canceled. A bucket
// holds chunks, and its occupancy bit is set, exactly while live > 0.
type bucket struct {
	head, tail *chunk
	rd, wr     int32
	live       int32
}

// timerSlot is one arena entry backing a cancelable timer.
type timerSlot struct {
	ev      Eventer
	at      Time // firing time, which names the bucket while the timer is on the wheel
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

	buckets []bucket // wheelSize ticks, lazily allocated
	occ     []uint64 // occupancy bitmap, one bit per bucket
	occSum  []uint64 // summary bitmap, one bit per occ word
	free    *chunk   // LIFO free list of zeroed chunks

	far []event // min-heap by (at, seq); never holds canceled timers

	timers    []timerSlot
	freeTimer int32 // freelist head (index+1), 0 when empty
}

func (q *eventQueue) init() {
	q.buckets = make([]bucket, wheelSize)
	q.occ = make([]uint64, wheelSize/64)
	q.occSum = make([]uint64, wheelSize/64/64)
}

// push enqueues a callback at absolute time at. Exactly one of obj /
// (slot, gen) identifies the work: obj for plain events, slot >= 0 for
// arena-backed timers.
//
//lbvet:hotpath
func (q *eventQueue) push(at Time, obj Eventer, slot int32, gen uint32) {
	if q.buckets == nil {
		q.init()
	}
	q.seq++
	ev := event{at: at, seq: q.seq, ev: obj, slot: slot, gen: gen}
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
	if b.live == 0 {
		c := q.getChunk()
		b.head, b.tail = c, c
		q.occ[idx>>6] |= 1 << uint(idx&63)
		q.occSum[idx>>12] |= 1 << uint((idx>>6)&63)
	} else if b.wr == chunkEvents {
		c := q.getChunk()
		b.tail.next = c
		b.tail = c
		b.wr = 0
	}
	b.tail.evs[b.wr] = ev
	b.wr++
	b.live++
}

// getChunk takes a zeroed chunk off the free list.
//
//lbvet:hotpath
func (q *eventQueue) getChunk() *chunk {
	if q.free == nil {
		q.refill()
	}
	c := q.free
	q.free = c.next
	c.next = nil
	return c
}

// putChunk returns a chunk, already zero over evs, to the free list.
//
//lbvet:hotpath
func (q *eventQueue) putChunk(c *chunk) {
	c.next = q.free
	q.free = c
}

// refill is the cold half of getChunk: one allocation of chunkBlock
// chunks, threaded onto the empty free list.
func (q *eventQueue) refill() {
	blk := make([]chunk, chunkBlock)
	for i := range blk[:chunkBlock-1] {
		blk[i].next = &blk[i+1]
	}
	q.free = &blk[0]
}

// consumeFront vacates the bucket's read slot (zeroing it) and returns
// the head chunk to the free list once the cursor leaves it. The bucket
// keeps a live event behind the cursor, so it never drains here;
// release empties it.
//
//lbvet:hotpath
func (q *eventQueue) consumeFront(b *bucket) {
	c := b.head
	c.evs[b.rd] = event{}
	b.rd++
	if b.rd == chunkEvents {
		b.head = c.next
		b.rd = 0
		q.putChunk(c)
	}
}

// release empties a bucket whose live count reached zero: the used
// range of its chunks is zeroed (whatever is left holds only canceled
// timers), every chunk goes back to the free list and its occupancy
// bits are cleared.
//
//lbvet:hotpath
func (q *eventQueue) release(b *bucket, idx int) {
	c, lo := b.head, b.rd
	for c != b.tail {
		next := c.next
		clear(c.evs[lo:])
		q.putChunk(c)
		c, lo = next, 0
	}
	clear(c.evs[lo:b.wr])
	q.putChunk(c)
	*b = bucket{}
	w := idx >> 6
	q.occ[w] &^= 1 << uint(idx&63)
	if q.occ[w] == 0 {
		q.occSum[w>>6] &^= 1 << uint(w&63)
	}
}

// nearTick returns the earliest occupied tick in [now, now+wheelSize).
// The caller guarantees some bucket is occupied.
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
// the clock. Stale (canceled-timer) events ahead of it in its bucket are
// physically discarded on the way; an occupied bucket always holds a
// live event, and the far heap never holds stale entries, so when the
// wheel is empty its top is the answer directly.
//
//lbvet:hotpath
func (q *eventQueue) peek() (Time, bool) {
	if q.pending > len(q.far) { // the wheel holds a live event
		t := q.nearTick()
		b := &q.buckets[int(t)&wheelMask]
		for {
			ev := &b.head.evs[b.rd]
			if ev.slot < 0 {
				break
			}
			if s := &q.timers[ev.slot]; s.armed && s.gen == ev.gen {
				break
			}
			q.consumeFront(b)
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
	ev := b.head.evs[b.rd]
	if b.live--; b.live == 0 {
		q.release(b, idx)
	} else {
		q.consumeFront(b)
	}
	if ev.slot >= 0 {
		ev.ev = q.timers[ev.slot].ev
		q.releaseTimer(ev.slot)
	}
	q.pending--
	return ev, true
}

// cancel removes an armed timer's event from the queue: eagerly from the
// far heap, or by its bucket's live count — the cancel that takes the
// count to zero releases the bucket, others leave a stale event behind
// for pop to skip.
//
//lbvet:hotpath
func (q *eventQueue) cancel(slot int32) {
	s := &q.timers[slot]
	if s.heapIdx >= 0 {
		q.farRemove(int(s.heapIdx))
	} else {
		idx := int(s.at) & wheelMask
		b := &q.buckets[idx]
		if b.live--; b.live == 0 {
			q.release(b, idx)
		}
	}
	q.releaseTimer(slot)
	q.pending--
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
// slot so dead callbacks are not pinned.
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

// allocTimer arms a fresh arena slot holding the callback due at at,
// and returns its index.
func (q *eventQueue) allocTimer(at Time, ev Eventer) int32 {
	slot := q.freeTimer - 1
	if slot >= 0 {
		q.freeTimer = q.timers[slot].free
	} else {
		q.timers = append(q.timers, timerSlot{})
		slot = int32(len(q.timers) - 1)
	}
	s := &q.timers[slot]
	s.ev = ev
	s.at = at
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
	s.ev = nil
	s.armed = false
	s.gen++
	s.heapIdx = -1
	s.free = q.freeTimer
	q.freeTimer = slot + 1
}
