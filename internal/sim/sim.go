// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate of the deterministic executor: Chord
// lookups, K-nary tree maintenance, heartbeats, and internal/protocol's
// message-level rounds (which drive the runtime-agnostic state machines
// of internal/lbnode) all run as events on it, with delivery, loss and
// retransmission expressed through DeliverEv and an optional
// MessageFilter. Every callback is an Eventer; Func adapts a closure.
//
// Virtual time is measured in the same latency units as topology
// distances (an intradomain underlay hop is 1 unit). Events with equal
// timestamps fire in scheduling order, so a run is a pure function of
// the seed and the initial event set.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"p2plb/internal/metrics"
)

// Time is a point in virtual time, in latency units.
type Time int64

// Engine is a deterministic event queue with virtual time, a seeded RNG
// and per-kind message accounting. It is not safe for concurrent use;
// each simulation instance owns one engine (multi-trial experiments run
// one engine per goroutine). Events live in a bucketed timer wheel with
// a far-horizon overflow heap (see queue.go); firing order is (at, seq),
// i.e. equal timestamps fire in scheduling order.
type Engine struct {
	q        eventQueue
	seed     int64
	rng      *rand.Rand
	msgStats map[string]*msgStat
	executed uint64
	draining bool // inside Run (see Draining)

	// Optional metrics sink. Per-kind counters are cached (one map
	// lookup per message) so the per-message hot path never takes the
	// registry lock.
	reg        *metrics.Registry
	mMsg       map[string]msgCounters
	queueDepth *metrics.Histogram

	// Optional fault layer. nil means every DeliverEv call transmits
	// exactly one copy with no extra latency.
	filter  MessageFilter
	dropped map[string]int64
}

// msgCounters pairs the registry counters for one message kind.
type msgCounters struct {
	count, cost *metrics.Counter
}

// msgStat is the per-kind accounting cell: one map lookup per message
// updates both the count and the cost.
type msgStat struct {
	count, cost int64
}

// NoNode marks a DeliverEv endpoint with no physical-node identity (setup
// paths, broadcasts). Filters must pass such messages through verbatim —
// they cannot place them on either side of a partition.
const NoNode = -1

// A MessageFilter decides the fate of every message offered to
// DeliverEv: it returns the extra latency of each transmitted copy
// (empty means the message is dropped; a reliable network returns one
// zero entry). key is the message's identity, chosen by the sender: two
// offers with the same kind and key are the same message, and a filter
// that decides by key alone gives a message the same fate whenever and
// wherever it is sent.
// The engine owns the filter — implementations follow the engine's
// single-goroutine contract, like Rand.
type MessageFilter interface {
	Deliveries(kind string, key uint64, src, dst int, now, cost Time) []Time
}

// Mix64 is the splitmix64 finalizer: a bijective 64-bit mixer whose
// output bits each depend on every input bit. Keyed filters hash a
// message's key through it, and senders build their keys with it, so
// both sides of the MessageFilter contract share one definition.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// A ForkFilter is a MessageFilter that side engines can carry. Fan-out
// layers (protocol's forked subtree phases) give each worker engine the
// filter's Fork and fold it back through Absorb, which calls Join.
type ForkFilter interface {
	MessageFilter
	// Fork returns a private instance for a side engine that decides
	// every message exactly as the receiver would, or nil when the
	// filter's decisions depend on more than the message (absolute
	// time, the ring's membership) and a side engine cannot reproduce
	// them.
	Fork() MessageFilter
	// Join folds a forked instance's counters into the receiver and
	// zeroes them on the fork.
	Join(fork MessageFilter)
}

// NewEngine returns an engine at time 0 with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		msgStats: make(map[string]*msgStat),
	}
}

// Seed returns the seed this engine was constructed with. Fan-out
// layers derive per-worker engine seeds from it without consuming the
// engine's own RNG stream (a draw would perturb every later draw and
// break equivalence with a sequential run).
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.q.now }

// Rand returns the engine's RNG. All randomness in a simulation must come
// from here to keep runs reproducible.
//
// The returned *rand.Rand is NOT safe for concurrent use, like the
// engine itself: an engine and everything hanging off it belong to one
// goroutine. Code that fans work out across goroutines (protocol's
// parallel subtrees, exp's multi-trial runs) must either consume all
// randomness sequentially before the fan-out or give each worker its
// own engine/RNG seeded from the parent — never share this one.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetMetrics attaches a metrics registry; nil detaches. Attach before
// the simulation starts (message counts recorded earlier are not
// replayed into the registry). The registry may be shared by several
// engines running on different goroutines — its primitives are
// concurrency-safe — but SetMetrics itself follows the engine's
// single-goroutine contract.
func (e *Engine) SetMetrics(r *metrics.Registry) {
	e.reg = r
	e.mMsg, e.queueDepth = nil, nil
	if r != nil {
		e.mMsg = make(map[string]msgCounters)
		e.queueDepth = r.Histogram("sim.queue.depth")
	}
}

// Metrics returns the attached registry (nil when none).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Eventer is the engine's one callback form: ScheduleEv, AfterEv and
// DeliverEv enqueue it, and RunEvent fires when the event's virtual
// time arrives. Hot senders embed small adapter structs in a pooled
// object and schedule interior pointers at zero allocations; the rest
// wrap a closure in Func.
type Eventer interface {
	RunEvent()
}

// Func adapts a closure to Eventer. A func value is pointer-shaped, so
// converting one to Eventer does not allocate.
type Func func()

// RunEvent calls f.
func (f Func) RunEvent() { f() }

// ScheduleEv runs ev after delay units of virtual time. A zero delay
// runs ev after all events already scheduled for the current instant.
// Negative delays panic.
//
//lbvet:hotpath
func (e *Engine) ScheduleEv(delay Time, ev Eventer) {
	e.push(delay, ev, false)
}

// Timer is a handle to a cancelable callback scheduled with AfterEv.
// The zero Timer is invalid; Cancel on it is a no-op.
type Timer struct {
	id  int32 // arena slot + 1; 0 = invalid
	gen uint32
}

// Zero reports whether t is the zero Timer — never armed. A fired or
// canceled timer's handle is non-zero but stale; Cancel distinguishes
// those by generation.
func (t Timer) Zero() bool { return t.id == 0 }

// AfterEv schedules ev to run after delay units of virtual time, like
// ScheduleEv, and returns a handle that Cancel accepts. Use it for
// timeout/retransmission timers that are usually canceled before they
// fire: a canceled timer is removed from the queue (or skipped) instead
// of firing into a dead check.
//
//lbvet:hotpath
func (e *Engine) AfterEv(delay Time, ev Eventer) Timer {
	return e.push(delay, ev, true)
}

// push queues ev at now+delay — through the timer arena when timer is
// set, returning its handle, else as a plain event (the zero Timer) —
// and observes the queue depth.
//
//lbvet:hotpath
func (e *Engine) push(delay Time, ev Eventer, timer bool) Timer {
	if delay < 0 {
		//lbvet:ignore hotalloc panic guard, never taken on correct runs
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	at := e.q.now + delay
	var t Timer
	if timer {
		slot := e.q.allocTimer(at, ev)
		t = Timer{id: slot + 1, gen: e.q.timers[slot].gen}
		e.q.push(at, nil, slot, t.gen)
	} else {
		e.q.push(at, ev, -1, 0)
	}
	if e.queueDepth != nil {
		e.queueDepth.Observe(int64(e.q.pending))
	}
	return t
}

// Cancel revokes a timer scheduled with AfterEv. It reports whether the
// timer was still pending: false means it already fired, was already
// canceled, or the handle is zero. Canceling is idempotent and cheap:
// the callback is released immediately and never fires. A timer parked
// beyond the wheel horizon leaves the far heap at once. A timer on the
// wheel leaves its event in its tick's bucket, skipped at pop, until
// that bucket holds no live event; the Cancel or pop that takes it
// there returns the whole bucket's storage to the queue's free list.
//
//lbvet:hotpath
func (e *Engine) Cancel(t Timer) bool {
	if t.id == 0 {
		return false
	}
	slot := t.id - 1
	s := &e.q.timers[slot]
	if !s.armed || s.gen != t.gen {
		return false
	}
	e.q.cancel(slot)
	return true
}

// Every schedules fn to run now+interval, now+2·interval, … until the
// returned cancel function is called. The interval must be positive.
func (e *Engine) Every(interval Time, fn func()) (cancel func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	stopped := false
	var t Timer
	var tick Func
	tick = func() {
		fn()
		if !stopped {
			t = e.AfterEv(interval, tick)
		}
	}
	t = e.AfterEv(interval, tick)
	return func() {
		if !stopped {
			stopped = true
			e.Cancel(t)
		}
	}
}

// Step executes the next pending event, advancing virtual time to its
// timestamp. It reports whether an event was executed.
//
//lbvet:hotpath
func (e *Engine) Step() bool {
	ev, ok := e.q.pop()
	if !ok {
		return false
	}
	e.executed++
	ev.ev.RunEvent()
	return true
}

// Run executes events until the queue is empty and returns the number of
// events executed. Do not call it while periodic timers are active — the
// queue never drains; use RunUntil instead.
func (e *Engine) Run() uint64 {
	start := e.executed
	prev := e.draining
	e.draining = true
	defer func() { e.draining = prev }()
	for e.Step() {
	}
	return e.executed - start
}

// Draining reports whether the engine is inside Run. Run returns only
// once the queue is empty, so while it drains no code outside the
// events themselves can run between two events; Step and RunUntil hand
// control back to their caller and report false. Code that simulates
// ahead of the clock (protocol's forked subtree phases) needs this:
// under Step or RunUntil the caller may change the world at any
// virtual instant.
func (e *Engine) Draining() bool { return e.draining }

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for {
		t, ok := e.q.peek()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	if e.q.now < deadline {
		e.q.advanceTo(deadline)
	}
}

// Pending returns the number of queued events (canceled timers are not
// counted).
func (e *Engine) Pending() int { return e.q.pending }

// Executed returns the total number of events executed so far,
// including those folded in from side engines by Absorb.
func (e *Engine) Executed() uint64 { return e.executed }

// Absorb folds a side engine's executed-event count, message tallies
// and per-kind drop counts into e, as if its events had run here, and
// zeroes them on w, so a side engine reused for later work never
// reports an event twice. When e's filter is a ForkFilter and w carries
// a filter (its Fork), the filter's own counters fold back through
// Join. Fan-out layers (protocol's forked subtree phases) call it when
// a worker engine has finished, on the goroutine that owns e.
func (e *Engine) Absorb(w *Engine) {
	e.executed += w.executed
	w.executed = 0
	for _, kind := range w.MessageKinds() {
		s := w.msgStats[kind]
		e.CountMessageN(kind, s.count, Time(s.cost))
	}
	clear(w.msgStats)
	for kind, n := range w.dropped {
		e.countDrops(kind, n)
	}
	clear(w.dropped)
	if ff, ok := e.filter.(ForkFilter); ok && w.filter != nil {
		ff.Join(w.filter)
	}
}

// CountMessage records one protocol message of the given kind with the
// given delivery cost (latency units). Protocol code calls this once per
// simulated message so experiments can report per-phase message and
// bandwidth-proxy totals.
//
//lbvet:hotpath
func (e *Engine) CountMessage(kind string, cost Time) { e.CountMessageN(kind, 1, cost) }

// CountMessageN records n messages of kind with combined cost total, as
// if CountMessage had been called n times. Bulk layers accumulate
// tallies and commit them through here in one deterministic step: the
// K-nary tree's sharded build (per worker), the closed-form round in
// core (per phase) and Absorb (per side engine).
//
//lbvet:hotpath
func (e *Engine) CountMessageN(kind string, n int64, total Time) {
	if n <= 0 {
		return
	}
	s := e.msgStats[kind]
	if s == nil {
		s = e.newMsgStat(kind)
	}
	s.count += n
	s.cost += int64(total)
	// Not a nil-safety guard (nil metrics are no-ops): without a registry
	// this skips a map lookup per message and the name concatenation.
	if e.reg != nil {
		mc, ok := e.mMsg[kind]
		if !ok {
			mc = msgCounters{
				count: e.reg.Counter("msg." + kind + ".count"),
				cost:  e.reg.Counter("msg." + kind + ".cost"),
			}
			e.mMsg[kind] = mc
		}
		mc.count.Add(n)
		mc.cost.Add(int64(total))
	}
}

// SetFilter installs a message filter (nil detaches). Install before
// the simulation starts; swapping filters mid-run changes the fate of
// messages sent afterwards, never of copies already scheduled.
func (e *Engine) SetFilter(f MessageFilter) { e.filter = f }

// Filter returns the installed message filter (nil when none).
func (e *Engine) Filter() MessageFilter { return e.filter }

// DeliverEv transmits one protocol message of the given kind and key
// from node src to node dst (physical-node indexes, NoNode when
// inapplicable): each transmitted copy is counted like CountMessage and
// ev scheduled after cost plus the copy's extra latency. It returns how
// many copies it scheduled, so a caller can count its own pending
// events. Without a filter exactly one copy is sent with no extra
// latency and the key is unused, so fault-free runs stay deterministic
// down to the event sequence. With a filter, the filter decides: no
// copies means the message is dropped (counted per kind in
// DroppedCount, ev never runs), several copies model duplication, extra
// latency models jitter. Delivery, loss and retry are executor
// concerns — the lbnode state machines this transports messages for
// never see the engine.
//
//lbvet:hotpath
func (e *Engine) DeliverEv(kind string, key uint64, src, dst int, cost Time, ev Eventer) int {
	if e.filter == nil {
		e.CountMessage(kind, cost)
		e.ScheduleEv(cost, ev)
		return 1
	}
	copies := e.filter.Deliveries(kind, key, src, dst, e.q.now, cost)
	if len(copies) == 0 {
		e.countDrops(kind, 1)
		return 0
	}
	for _, extra := range copies {
		if extra < 0 {
			extra = 0
		}
		e.CountMessage(kind, cost+extra)
		e.ScheduleEv(cost+extra, ev)
	}
	return len(copies)
}

// countDrops records n dropped messages of kind.
func (e *Engine) countDrops(kind string, n int64) {
	if e.dropped == nil {
		e.dropped = make(map[string]int64)
	}
	e.dropped[kind] += n
}

// DroppedCount returns how many messages of kind the filter dropped.
func (e *Engine) DroppedCount(kind string) int64 { return e.dropped[kind] }

// DroppedTotal returns the count of all dropped messages of every kind.
func (e *Engine) DroppedTotal() int64 {
	var n int64
	for _, c := range e.dropped {
		n += c
	}
	return n
}

// newMsgStat is the cold first-use path of the message counters.
func (e *Engine) newMsgStat(kind string) *msgStat {
	s := &msgStat{}
	e.msgStats[kind] = s
	return s
}

// MessageCount returns how many messages of kind were counted.
func (e *Engine) MessageCount(kind string) int64 {
	if s := e.msgStats[kind]; s != nil {
		return s.count
	}
	return 0
}

// MessageCost returns the total delivery cost of messages of kind.
func (e *Engine) MessageCost(kind string) int64 {
	if s := e.msgStats[kind]; s != nil {
		return s.cost
	}
	return 0
}

// MessageKinds returns all message kinds seen, sorted.
func (e *Engine) MessageKinds() []string {
	kinds := make([]string, 0, len(e.msgStats))
	for k := range e.msgStats {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// TotalMessages returns the count of all messages of every kind.
func (e *Engine) TotalMessages() int64 {
	var n int64
	for _, s := range e.msgStats {
		n += s.count
	}
	return n
}

// ResetMessageStats clears message accounting, including drop counts
// (used between experiment phases so each phase reports its own
// traffic — without the drop reset, fault-sweep phases double-report).
func (e *Engine) ResetMessageStats() {
	e.msgStats = make(map[string]*msgStat)
	e.dropped = nil
}
