// Package protocol executes the load-balancing scheme as explicit
// messages on the discrete-event engine — the fully distributed
// counterpart of core.Balancer's closed-form round.
//
// The per-node protocol logic itself — LBI epoch merging, the
// classification roster, VSA rendezvous pairing, the two-phase VST
// handoff — lives in internal/lbnode as pure state machines shared with
// the deployed daemon (internal/cluster). This package is the
// deterministic-sim driver for those machines: it owns everything the
// machines deliberately do not — delivery through sim.Engine (so a
// fault plan can interfere), per-child epoch timers, sequence-numbered
// acks with retransmission, and the per-round scratch recycling. LBI
// collection is a pull converge-cast with per-child timeouts, the
// global tuple is disseminated hop by hop, proximity-aware
// advertisements are published through routed Chord lookups, the VSA
// converge-cast carries the actual lists, rendezvous points emit pair
// notifications as messages, and transfers occupy simulated time.
// Because every step is an event, nodes may crash *during* a round:
// dead subtrees simply stop replying, parents proceed after a timeout
// with partial data, and the next round (after tree repair) picks up
// the remainder — the fault-tolerance behaviour §3.1-3.4 argue for and
// defer to future work to evaluate.
//
// When nothing but the round can act on the engine — no foreign pending
// event, the engine draining in Run, and no filter or one whose fates
// are keyed by message — the LBI and VSA converge-casts simulate the
// root's child subtrees on separate engines in parallel and replay their
// results on the root's clock, with the same outcome as the sequential
// walk (parallel.go). Every message carries a key naming it (msgKey), so
// a keyed fault filter gives it the same fate on either engine.
//
// All three executions share the classification and pairing rules
// through lbnode and core's exported primitives, so on a static ring
// they produce equivalent balancing outcomes.
//
// Every message is sent through sim.Engine.Deliver, so a fault plan
// (internal/faults) can drop, duplicate or delay it. Under a filter,
// every reliable message — converge-cast pulls and replies,
// dissemination copies, pairing notifications and the handoff phases —
// rides a reliable exchange: a sequence number, bounded, exponentially
// backed-off retransmission, receiver-side dedup (exactly-once handler
// execution) and a sequence-numbered ack. On a lossless engine only
// the handoff phases, whose receivers can refuse a message, keep the
// exchange; a tree-walk message arrives exactly once and its role acks
// it directly (see walkSend). The virtual-server transfer is a
// two-phase prepare/commit handoff whose commit applies ring.Transfer
// exactly once — a VS is never lost and never double-hosted no matter
// where a drop, duplicate or crash lands (chord.Ring.CheckConservation
// is the executable statement of that guarantee). The per-level epoch
// timeouts remain the backstop for what retransmission cannot fix:
// dead or partitioned subtrees.
package protocol

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/lbnode"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
)

// Message kinds counted on the engine.
const (
	MsgCollectDown = "protocol.lbi-collect"  // parent → child LBI pull
	MsgReportUp    = "protocol.lbi-report"   // child → parent LBI reply
	MsgDisperse    = "protocol.lbi-disperse" // parent → child global tuple
	MsgPublish     = "protocol.vsa-publish"  // final hop of a routed VSA publication
	MsgVSADown     = "protocol.vsa-collect"  // parent → child VSA pull
	MsgVSAUp       = "protocol.vsa-report"   // child → parent VSA reply
	MsgAssign      = "protocol.vsa-assign"   // rendezvous → endpoints
	MsgPrepare     = "protocol.vst-prepare"  // heavy → light handoff reservation
	MsgTransfer    = "protocol.vst-transfer" // the virtual server movement (commit)
)

// MsgAckSuffix is appended to a reliable message's kind for its
// acknowledgement (e.g. "protocol.lbi-report.ack").
const MsgAckSuffix = ".ack"

// Config parameterizes a Runner.
type Config struct {
	// Core carries the balancing semantics (mode, epsilon, threshold,
	// mapper, subset strategy, transfer-cost metric).
	Core core.Config
	// ChildTimeout is the per-level epoch slack: a KT node at depth d
	// waits ChildTimeout·(height−d+1) for its children's replies before
	// proceeding with partial data (crashed subtrees never reply).
	// Scaling with remaining subtree height is essential — with a flat
	// window every ancestor would give up just before its child's
	// partial reply arrived, cascading data loss to the root. The value
	// must exceed the worst one-hop reply latency; 0 means a generous
	// default of 5000 time units per level. It only affects rounds in
	// which something actually failed.
	ChildTimeout sim.Time
	// MaxRetries bounds how often a reliable message (converge-cast
	// replies, dissemination, pairing notifications, the two-phase
	// handoff) is retransmitted when its ack does not arrive. The
	// retransmission timer starts at one round trip plus slack and
	// doubles per attempt (exponential backoff). 0 means the default of
	// 5; lossless runs never retransmit, so the knob only matters under
	// a fault plan.
	MaxRetries int
}

// defaultChildTimeout is the per-level slack used when Config leaves
// ChildTimeout zero.
const defaultChildTimeout = 5000

// defaultMaxRetries is the retransmission bound used when Config leaves
// MaxRetries zero. Five doublings from one round trip tolerate ~30%
// loss with high probability without stretching timed-out epochs.
const defaultMaxRetries = 5

// Runner executes rounds over a ring and its tree.
type Runner struct {
	ring *chord.Ring
	tree *ktree.Tree
	cfg  Config
	eng  *sim.Engine

	roundActive bool
	scratch     *roundScratch
	rounds      uint64 // rounds started: the round ordinal in message keys

	// Read by tests: collect phases that forked, and copies or
	// retransmissions a finished round dropped (see late).
	forks, lateDrops int
}

// roundScratch holds the per-round maps (and the report slices inside
// lbiInbox), and the placement whose slices the next PlaceRound takes
// over, that periodic rounds (Every) would otherwise reallocate every
// round. A round hands its scratch back only when it finished
// clean: after a timeout or an aborted transfer, stale epoch events may
// still read the maps (and a late VSA reply can even mutate its
// PairList), so such rounds drop the scratch instead of recycling it.
type roundScratch struct {
	lbiInbox map[*ktree.Node][]core.LBI
	states   map[*chord.Node]*core.NodeState
	vsaInbox map[*ktree.Node]*core.PairList
	place    *core.Placement // nil until a round has drawn one
}

// takeScratch returns a cleared scratch for the next round, reusing the
// previous round's maps when available.
func (r *Runner) takeScratch() *roundScratch {
	sc := r.scratch
	r.scratch = nil
	if sc == nil {
		return &roundScratch{
			lbiInbox: make(map[*ktree.Node][]core.LBI),
			states:   make(map[*chord.Node]*core.NodeState),
			vsaInbox: make(map[*ktree.Node]*core.PairList),
		}
	}
	// Tree repair retires KT nodes between rounds; once dead keys
	// clearly dominate, a fresh map beats dragging their buckets along.
	if len(sc.lbiInbox) > 2*r.tree.NumNodes()+16 {
		sc.lbiInbox = make(map[*ktree.Node][]core.LBI)
	} else {
		for k, v := range sc.lbiInbox {
			sc.lbiInbox[k] = v[:0]
		}
	}
	clear(sc.states)
	clear(sc.vsaInbox)
	return sc
}

// NewRunner returns a Runner. The tree must belong to the ring.
func NewRunner(ring *chord.Ring, tree *ktree.Tree, cfg Config) (*Runner, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if tree.Ring() != ring {
		return nil, fmt.Errorf("protocol: tree is built over a different ring")
	}
	if cfg.ChildTimeout < 0 {
		return nil, fmt.Errorf("protocol: negative child timeout")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("protocol: negative retry bound")
	}
	return &Runner{ring: ring, tree: tree, cfg: cfg, eng: ring.Engine()}, nil
}

// Result extends core.Result with the protocol-level evidence.
type Result struct {
	core.Result
	// TimedOutChildren counts child epochs a parent gave up waiting
	// for (dead or unreachable subtrees).
	TimedOutChildren int
	// AbortedTransfers counts pairings whose endpoint died before the
	// transfer completed, or whose prepare/commit phase exhausted its
	// retries.
	AbortedTransfers int
	// NodesClassified counts nodes that received the global tuple.
	NodesClassified int
	// Retries counts retransmissions of reliable messages (zero on a
	// lossless network).
	Retries int
}

// round carries one round's mutable state.
type round struct {
	r       *Runner
	ord     uint64 // the Runner's round ordinal (see msgKey)
	timeout sim.Time
	start   sim.Time

	// own counts the events this round has pending on its engine:
	// message copies, timers and replays. Every schedule adds what it
	// queued and every firing or successful Cancel takes one away, so
	// the fork rule can tell the round's events from foreign ones.
	own int

	lbiInbox map[*ktree.Node][]core.LBI
	global   core.LBI
	place    *core.Placement // the round's randomized placement, drawn before any event

	roster     *lbnode.Roster // dissemination endpoint state (over scratch's states map)
	vsaInbox   map[*ktree.Node]*core.PairList
	publishing int // outstanding routed publications

	// Reliable-delivery state. seen is the receiver-side dedup set: a
	// sequence number enters it when its message is first accepted, so
	// duplicated or retransmitted copies are idempotent. Sequence numbers
	// are allocated densely from zero per round, so the set is a growable
	// bitset rather than a map — at large scale it is touched once per
	// delivered copy. It starts fresh every round (never recycled through
	// roundScratch); late retransmits from a previous round are fenced by
	// their own round's finished flag, not by this set.
	nextSeq    uint64
	seen       seqSet
	maxRetries int

	deadline sim.Timer // round-failure backstop, canceled on completion

	outstandingTransfers int
	vsaDone              bool
	finished             bool

	// Chunked slabs for the tree-walk objects (colNode, colEdge, …) and
	// each phase's machines: the walks allocate one object per live tree
	// node/edge per phase, and a slab turns those into one heap
	// allocation per slabChunk objects. The backing arrays die with the
	// round.
	colNodes  []colNode
	colEdges  []colEdge
	lbiCols   []lbnode.LBICollect
	vsaCols   []lbnode.VSACollect
	dispEdges []dispEdge

	onRoot     func(reply) // the current collect phase's continuation
	collectAck inertAck

	// Subtree forking (parallel.go). On the round itself: each collect
	// phase's decision and one worker per root child, made at the
	// round's first fork. On a worker's sub-round, worker is set —
	// emitPair records instead of executing — and both phases are
	// forkOff.
	fork    [2]forkState // by phase
	workers []*subWorker
	worker  *subWorker

	res    *Result
	finish func(*Result, error)
}

// slabChunk is how many walk objects one slab allocation holds.
const slabChunk = 256

// slabAlloc hands out the next zeroed object from a chunked slab,
// refilling it with a fresh backing array when empty.
func slabAlloc[T any](s *[]T) *T {
	if len(*s) == 0 {
		*s = make([]T, slabChunk)
	}
	p := &(*s)[0]
	*s = (*s)[1:]
	return p
}

// seqSet is a growable bitset over densely allocated sequence numbers.
type seqSet struct{ bits []uint64 }

//lbvet:hotpath
func (s *seqSet) has(seq uint64) bool {
	w := seq >> 6
	return w < uint64(len(s.bits)) && s.bits[w]&(1<<(seq&63)) != 0
}

func (s *seqSet) add(seq uint64) {
	w := seq >> 6
	for uint64(len(s.bits)) <= w {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << (seq & 63)
}

// done completes the round exactly once.
func (rd *round) done(res *Result, err error) {
	if rd.finished {
		return
	}
	rd.finished = true
	rd.cancel(rd.deadline)
	rd.finish(res, err)
}

// after arms a timer for the round, counted in own.
//
//lbvet:hotpath
func (rd *round) after(delay sim.Time, ev sim.Eventer) sim.Timer {
	rd.own++
	return rd.r.eng.AfterEv(delay, ev)
}

// schedule queues a replay or other round event, counted in own. fn
// must start with rd.own--.
func (rd *round) schedule(delay sim.Time, fn func()) {
	rd.own++
	rd.r.eng.Schedule(delay, fn)
}

// cancel revokes one of the round's timers.
//
//lbvet:hotpath
func (rd *round) cancel(t sim.Timer) {
	if rd.r.eng.Cancel(t) {
		rd.own--
	}
}

// deliver sends one message copy set for the round, counting the
// copies the filter let through in own.
//
//lbvet:hotpath
func (rd *round) deliver(kind string, key uint64, src, dst int, cost sim.Time, ev sim.Eventer) {
	rd.own += rd.r.eng.DeliverEv(kind, key, src, dst, cost, ev)
}

// StartRound begins one asynchronous load-balancing round; done fires
// on the engine when the round (including all transfers) completes.
// Only one round may be active at a time. The round's first step
// repairs the tree, so a caller that changed membership since the last
// round need not; a round that completes repairs it again, as its last
// step, for what changed while it ran.
func (r *Runner) StartRound(done func(*Result, error)) error {
	if r.roundActive {
		return fmt.Errorf("protocol: round already active")
	}
	if r.ring.NumVServers() == 0 {
		return fmt.Errorf("protocol: ring has no virtual servers")
	}
	// The round starts on a tree consistent with the ring: Repair
	// builds an unbuilt tree, replants what membership changes since
	// the last pass left stale, and on a quiescent ring is free.
	if _, err := r.tree.Repair(); err != nil {
		return err
	}
	// Same contract as core.Balancer.RunRound: a configured LoadSource
	// snapshots its current view into vs.Load before the LBI sweep reads
	// it (the serving layer's observed request rates refresh here).
	if r.cfg.Core.Loads != nil {
		r.cfg.Core.Loads.Refresh(r.ring)
	}
	r.roundActive = true
	r.rounds++
	timeout := r.cfg.ChildTimeout
	if timeout == 0 {
		timeout = defaultChildTimeout
	}
	retries := r.cfg.MaxRetries
	if retries == 0 {
		retries = defaultMaxRetries
	}
	sc := r.takeScratch()
	rd := &round{
		r:          r,
		ord:        r.rounds,
		timeout:    timeout,
		start:      r.eng.Now(),
		lbiInbox:   sc.lbiInbox,
		roster:     lbnode.NewRoster(sc.states),
		vsaInbox:   sc.vsaInbox,
		maxRetries: retries,
		res: &Result{Result: core.Result{
			Mode:        r.cfg.Core.Mode,
			MovedByHops: &stats.WeightedHistogram{},
			TreeHeight:  r.tree.Height(),
		}},
		finish: func(res *Result, err error) {
			r.roundActive = false
			// Recycle the scratch only after a perfectly clean round:
			// timeouts, aborts and retransmissions all mean stale epoch
			// events or late copies may still reference the maps.
			if err == nil && res.TimedOutChildren == 0 && res.AbortedTransfers == 0 && res.Retries == 0 {
				// The sweep merged each subtree's entries into lists its
				// leaves' inboxes still point at; let them go now rather
				// than at the next round.
				clear(sc.vsaInbox)
				r.scratch = sc
			}
			r.recordRound(res, err)
			done(res, err)
		},
	}
	// Hard deadline: if the root itself dies mid-round the epoch can
	// never complete; fail the round so the caller can repair and retry.
	// A completing round cancels it so the engine drains immediately.
	rd.collectAck.rd = rd
	rd.own++
	rd.deadline = r.eng.After(8*rd.epochWindow(r.tree.Root()), func() {
		rd.own--
		rd.done(nil, fmt.Errorf("protocol: round deadline exceeded (root unreachable?)"))
	})
	// Draw the round's placement before the first event, so where each
	// report and advertisement enters the tree does not depend on
	// delivery order. core.Balancer.RunRound draws the same placement
	// from the same RNG state, which is why the two pair identically
	// (see core.PlaceRound).
	rd.place = core.PlaceRound(r.ring, r.tree, r.eng.Rand(), sc.place)
	sc.place = rd.place
	// Each placed node's report waits at its leaf, in ring order: the
	// sequence both drivers aggregate.
	for i, n := range rd.place.Nodes {
		if leaf := rd.place.LBILeaf[i]; leaf != nil {
			rd.lbiInbox[leaf] = append(rd.lbiInbox[leaf], core.NodeLBI(n))
		}
	}
	rd.collect(phaseLBI, func(out reply) {
		global := out.agg
		if !global.Valid() {
			rd.done(nil, fmt.Errorf("protocol: no node reported LBI"))
			return
		}
		rd.global = global
		rd.res.Global = global
		rd.res.TimeLBIAggregate = r.eng.Now() - rd.start
		rd.disseminate(r.tree.Root())
		// Dissemination completion is tracked per delivery; the VSA
		// epoch starts once all deliveries and publications are done.
	})
	return nil
}

// recordRound publishes one round's outcome to the engine's metrics
// registry (no-op without one): measured per-phase durations in virtual
// latency units plus the failure evidence a message-level round can
// produce (timed-out child epochs, aborted transfers).
func (r *Runner) recordRound(res *Result, err error) {
	reg := r.eng.Metrics()
	reg.Counter("protocol.rounds").Inc()
	if err != nil {
		reg.Counter("protocol.round_errors").Inc()
		return
	}
	reg.Histogram("protocol.phase.lbi_aggregate").Observe(int64(res.TimeLBIAggregate))
	reg.Histogram("protocol.phase.lbi_disseminate").Observe(int64(res.TimeLBIDisseminate - res.TimeLBIAggregate))
	if res.TimePublish > 0 {
		reg.Histogram("protocol.phase.publish").Observe(int64(res.TimePublish - res.TimeLBIDisseminate))
	}
	reg.Histogram("protocol.phase.vsa").Observe(int64(res.TimeVSAComplete))
	reg.Histogram("protocol.phase.vst").Observe(int64(res.TimeVSTComplete))
	reg.Counter("protocol.timeouts").Add(int64(res.TimedOutChildren))
	reg.Counter("protocol.aborted_transfers").Add(int64(res.AbortedTransfers))
	reg.Counter("protocol.retries").Add(int64(res.Retries))
	reg.Counter("protocol.pairs.assigned").Add(int64(len(res.Assignments)))
	reg.Counter("protocol.pairs.unassigned").Add(int64(res.UnassignedOffers))
	reg.Float("protocol.moved_load").Add(res.MovedLoad)
}

// epochWindow returns how long the KT node n waits for its children's
// epoch replies: the per-level slack times the remaining subtree height,
// so a parent's window always outlasts its children's.
func (rd *round) epochWindow(n *ktree.Node) sim.Time {
	levels := rd.r.tree.Height() - n.Depth + 1
	if levels < 1 {
		levels = 1
	}
	return rd.timeout * sim.Time(levels)
}

// hostIdx returns the physical-node index hosting a KT node, the
// endpoint identity the fault layer partitions on.
func hostIdx(n *ktree.Node) int { return n.Host.Owner.Index }

// msgKey is a message's identity for the fault layer, which decides its
// fate from the key alone (sim.MessageFilter). The key must name the
// message the same way in the sequential walk and in a forked subtree,
// so it is built from what the message is, not from when or where it
// was sent: the Runner's round ordinal, the kind, and a and b. For a
// tree-walk message a is the tree node its edge leads to (nodeKey; a KT
// node's Region is unique in the tree) and b is 0. For a handoff phase
// a is the sender's index and b the virtual server it moves with the
// receiver's index (handoffKey); the rendezvous point's notifications
// name their sender by its KT node instead, because its host may move
// on the tick they leave and a forked round replays pairings in another
// order within that tick. An exchange then adds the attempt number of a
// data copy or the ordinal of an ack (see exchange.key).
//
// Two things stay out. Absolute time and engine sequence numbers: a
// forked round's root clock stops earlier, so the next round would
// start at another tick. And per-(src, dst) ordinals: one physical node
// hosts KT nodes in several root-child subtrees, so such an ordinal
// counts differently in a forked walk.
func msgKey(ord uint64, kind string, a, b uint64) uint64 {
	return sim.Mix64(sim.Mix64(sim.Mix64(ord*0x9E3779B97F4A7C15+kindCode(kind))^a) ^ b)
}

// nodeKey names the tree edge that leads to n.
func nodeKey(n *ktree.Node) uint64 { return uint64(n.Region.Start)<<32 ^ n.Region.Width }

// handoffKey names a handoff phase's message by the virtual server it
// moves and the receiver's index.
func handoffKey(p core.Pair, dst int) uint64 { return uint64(p.VS.ID)<<32 | uint64(uint32(dst)) }

// kindCode numbers the message kinds for msgKey without hashing the
// kind's string on every send.
func kindCode(kind string) uint64 {
	switch kind {
	case MsgCollectDown:
		return 1
	case MsgReportUp:
		return 2
	case MsgDisperse:
		return 3
	case MsgVSADown:
		return 4
	case MsgVSAUp:
		return 5
	case MsgAssign:
		return 6
	case MsgPrepare:
		return 7
	case MsgTransfer:
		return 8
	}
	panic("protocol: no key code for message kind " + kind)
}

// rhandler is the callback pair of one reliable exchange, implemented
// on the slab-allocated walk objects and on handoffs so a reliable send
// costs no closure allocations. reliableEv delivers with at-least-once
// retransmission and receiver-side dedup — together, exactly-once
// handler execution:
//
//   - each copy that arrives offers the message to HandleMsg; the
//     first accepted copy marks the sequence number seen, so
//     duplicates and retransmits only re-ack. HandleMsg returning
//     false models a dead or no-longer-valid receiver: no dedup mark,
//     no ack — silence.
//   - every accepted arrival acks back to the sender; the first ack
//     settles the exchange.
//   - the sender retransmits when no ack arrives within the timer —
//     one round trip plus slack, doubling per attempt — up to the
//     round's retry bound, then settles failed.
//
// SettleMsg(ok) runs exactly once per send (ok: an ack arrived; !ok:
// retries exhausted). A settled failure does NOT imply the handler
// never ran — the data may have arrived with every ack lost — so
// side effects that must not double (the VST commit) live in the
// handler behind the dedup, and failure paths only release resources.
type rhandler interface {
	HandleMsg() bool
	SettleMsg(ok bool)
}

// reliableEv sends one message through a fresh reliable exchange; a and
// b name it as in msgKey.
//
//lbvet:hotpath
func (rd *round) reliableEv(kind string, a, b uint64, src, dst int, cost sim.Time, h rhandler) {
	ex := rd.newExchange(kind, msgKey(rd.ord, kind, a, b), src, dst, cost)
	ex.h = h
	ex.send()
}

//lbvet:hotpath
func (rd *round) newExchange(kind string, key uint64, src, dst int, cost sim.Time) *exchange {
	//lbvet:ignore hotalloc one exchange per reliable message: a lossless round sends only its handoff phases through here (three per pairing), and under a filter late copies may still hold an exchange, so none is reused
	ex := &exchange{
		rd: rd, kind: kind, ackKind: ackKindOf(kind), key: key,
		src: src, dst: dst, cost: cost,
		seq:          rd.nextSeq,
		attemptsLeft: rd.maxRetries + 1,
		backoff:      2*cost + 2,
	}
	// Wire the three embedded event adapters once: interior pointers
	// into the exchange itself, reused across retransmissions and
	// duplicate arrivals instead of a fresh closure per attempt.
	ex.arriveEv.ex = ex
	ex.ackEv.ex = ex
	ex.rtoEv.ex = ex
	rd.nextSeq++
	return ex
}

// ackKindOf maps a reliable kind to its ack kind without concatenating
// at send time (constant folding keeps the switch allocation-free).
func ackKindOf(kind string) string {
	switch kind {
	case MsgCollectDown:
		return MsgCollectDown + MsgAckSuffix
	case MsgReportUp:
		return MsgReportUp + MsgAckSuffix
	case MsgDisperse:
		return MsgDisperse + MsgAckSuffix
	case MsgVSADown:
		return MsgVSADown + MsgAckSuffix
	case MsgVSAUp:
		return MsgVSAUp + MsgAckSuffix
	case MsgAssign:
		return MsgAssign + MsgAckSuffix
	case MsgPrepare:
		return MsgPrepare + MsgAckSuffix
	case MsgTransfer:
		return MsgTransfer + MsgAckSuffix
	}
	return kind + MsgAckSuffix
}

// exchange is one reliable message's in-flight state: the sender side
// (retransmission attempts, the cancelable rto timer, the settle
// outcome) and the receiver side (dedup by sequence number, the ack).
type exchange struct {
	rd           *round
	kind         string
	ackKind      string
	key          uint64 // msgKey; attempt a sends key+2a, the j-th ack key+2j+1
	attempt      uint64 // data copies sent so far, less one
	acks         uint64 // acks sent so far
	src, dst     int
	cost         sim.Time
	seq          uint64
	attemptsLeft int
	backoff      sim.Time
	settled      bool
	rto          sim.Timer
	h            rhandler // receiver handler + sender settle outcome

	arriveEv arriveEv
	ackEv    ackEv
	rtoEv    rtoEv
}

// arriveEv, ackEv and rtoEv adapt the exchange's three event entry
// points to sim.Eventer. They are embedded by value so scheduling one
// passes an interior pointer — no per-event closure, no per-exchange
// method-value allocations.
type arriveEv struct{ ex *exchange }

//lbvet:hotpath
func (a *arriveEv) RunEvent() {
	a.ex.rd.own--
	a.ex.arrive()
}

type ackEv struct{ ex *exchange }

//lbvet:hotpath
func (a *ackEv) RunEvent() {
	a.ex.rd.own--
	a.ex.resolve(true)
}

type rtoEv struct{ ex *exchange }

//lbvet:hotpath
func (r *rtoEv) RunEvent() {
	r.ex.rd.own--
	r.ex.onRTO()
}

// resolve settles the exchange exactly once. The pending retransmission
// timer is revoked instead of firing into a dead check.
func (ex *exchange) resolve(ok bool) {
	if ex.settled {
		return
	}
	ex.settled = true
	ex.rd.cancel(ex.rto)
	ex.h.SettleMsg(ok)
}

// send transmits one copy and arms the retransmission timer. On a
// lossless network (no fault filter) the timer is not armed here at
// all: the single copy provably arrives, and the only outcome that
// needs a retransmission — the handler refusing the message — arms it
// from the refusal itself (see arrive). At scale the always-armed,
// always-canceled rto was roughly a quarter of all queue traffic.
func (ex *exchange) send() {
	if ex.settled || ex.rd.finished {
		return
	}
	rd := ex.rd
	rd.deliver(ex.kind, ex.key+2*ex.attempt, ex.src, ex.dst, ex.cost, &ex.arriveEv)
	if rd.r.eng.Filter() != nil {
		ex.rto = rd.after(ex.backoff, &ex.rtoEv)
	}
}

// arrive runs at the receiver for every copy that lands: the first
// accepted copy executes the handler and enters the dedup set; every
// accepted arrival (re-)acks.
func (ex *exchange) arrive() {
	rd := ex.rd
	if rd.finished {
		rd.late()
		return
	}
	if !rd.seen.has(ex.seq) {
		if !ex.h.HandleMsg() {
			// Refused: no dedup mark, no ack — the sender must time
			// out. Lossless sends skipped the eager rto (see send), so
			// arm it now for the instant the eager timer would have
			// fired: this copy left at now-cost, so the window closes
			// backoff-cost from now. The doubling ladder is unchanged —
			// onRTO retransmits at exactly the eager schedule's times.
			if ex.rto.Zero() && rd.r.eng.Filter() == nil {
				ex.rto = rd.after(ex.backoff-ex.cost, &ex.rtoEv)
			}
			return
		}
		rd.seen.add(ex.seq)
	}
	rd.deliver(ex.ackKind, ex.key+2*ex.acks+1, ex.dst, ex.src, ex.cost, &ex.ackEv)
	ex.acks++
}

// onRTO fires when no ack arrived within the backoff window:
// retransmit with a doubled window, or settle failed once the attempts
// are spent.
func (ex *exchange) onRTO() {
	if ex.settled {
		return
	}
	if ex.rd.finished {
		ex.rd.late()
		return
	}
	if ex.attemptsLeft <= 1 {
		ex.resolve(false)
		return
	}
	ex.rd.res.Retries++
	ex.attemptsLeft--
	ex.attempt++
	ex.backoff *= 2
	// This handle was just consumed by firing; clear it so a lossless
	// retransmission's refusal can arm a fresh one (see arrive).
	ex.rto = sim.Timer{}
	ex.send()
}

// late records a copy or retransmission the round dropped because it
// had already finished. A forked subtree's worker cannot know when the
// round finishes, so it handles, acks and retransmits these: they are
// the only messages in which a forked round differs from the
// sequential walk (TestParallelSubtreesEquivalenceUnderLoss).
func (rd *round) late() { rd.r.lateDrops++ }

// walkSend sends one tree-walk message on the edge that leads to the
// tree node to: an LBI or VSA pull or reply, or a dissemination copy.
// h is the role under a filter and arrive the same role as the arrival
// event on a lossless engine, passed twice so neither path converts one
// interface to another. Without a MessageFilter, DeliverEv sends
// exactly one copy with no extra delay and no walk handler ever refuses
// a message, so an exchange's dedup, retransmission timer and settle
// step could never act: the message is delivered straight to its role,
// which runs its handler and sends its own ack (same kind plus
// MsgAckSuffix, reverse direction, same cost). Both paths push the same
// events at the same instants, so event order, message tallies and the
// outcome are the same (TestLosslessDeliveryMatchesExchange).
//
//lbvet:hotpath
func (rd *round) walkSend(kind string, to *ktree.Node, src, dst int, cost sim.Time, h rhandler, arrive sim.Eventer) {
	if rd.r.eng.Filter() != nil {
		rd.reliableEv(kind, nodeKey(to), 0, src, dst, cost, h)
		return
	}
	if rd.finished {
		return
	}
	rd.deliver(kind, 0, src, dst, cost, arrive)
}

// walkArrive is a walk message's arrival on the direct path: nothing
// once the round has finished, else the role's handler and then its ack.
//
//lbvet:hotpath
func (rd *round) walkArrive(h rhandler, ackKind string, src, dst int, cost sim.Time, ack sim.Eventer) {
	rd.own--
	if rd.finished {
		return
	}
	h.HandleMsg()
	rd.deliver(ackKind, 0, src, dst, cost, ack)
}

// inertAck is the arrival of a collect pull's or reply's ack on the
// direct path: the exchange's settle step does nothing for either, so
// the ack is only a counted message and an event. The round's
// collectAck is the one instance every such ack schedules.
type inertAck struct{ rd *round }

func (a *inertAck) RunEvent() { a.rd.own-- }

// phase names one of the round's two collect converge-casts, the LBI
// aggregation (§3.2) and the VSA sweep (§3.4). Both are the same
// bottom-up pull over the KT tree; the phase picks the lbnode machine a
// node opens over which inbox, what its reply carries and the message
// kinds.
type phase uint8

const (
	phaseLBI phase = iota
	phaseVSA
)

// walkKinds are each phase's message kinds: the pull, the reply and
// their acks.
var walkKinds = [...]struct{ pull, pullAck, reply, replyAck string }{
	phaseLBI: {MsgCollectDown, MsgCollectDown + MsgAckSuffix, MsgReportUp, MsgReportUp + MsgAckSuffix},
	phaseVSA: {MsgVSADown, MsgVSADown + MsgAckSuffix, MsgVSAUp, MsgVSAUp + MsgAckSuffix},
}

// reply is what a closed epoch sends up its parent edge: the subtree's
// LBI aggregate, or the VSA entries it left unpaired.
type reply struct {
	agg  core.LBI
	list *core.PairList
}

// collector is what the walk asks of either phase's machine
// (lbnode.LBICollect, lbnode.VSACollect) without telling them apart.
type collector interface {
	Expire() (timedOut int, expired bool)
}

// collect runs phase ph's converge-cast from the tree's root, one
// lbnode epoch per node: leaves answer from their inbox; internal nodes
// pull their children, feed the replies to their machine, and give up
// on silent children after the timeout. cb receives the root's reply.
// The walk runs on slab-pooled colNode/colEdge objects, one per live
// tree node and edge, so an epoch costs no per-message closures. The
// root's child subtrees may run forked (see parallel.go).
func (rd *round) collect(ph phase, cb func(reply)) {
	rd.onRoot = cb
	rd.startCollect(ph, rd.r.tree.Root(), nil)
}

// colNode drives one internal node's epoch: the phase's machine, the
// epoch timer, and the parent edge its reply leaves on (nil at the
// walk's root).
type colNode struct {
	rd       *round
	n        *ktree.Node
	ni       int
	ph       phase
	col      collector
	parent   *colEdge
	expire   sim.Timer
	expireEv colExpire
}

// colEdge is one parent→child link of an epoch: the target of the
// downward pull, the buffer for the child subtree's reply, and the two
// reliable-exchange handler roles (pull arriving at the child, reply
// arriving back at the parent) as embedded adapters.
type colEdge struct {
	nd   *colNode // parent's
	c    *ktree.Node
	ci   int
	chi  int
	edge sim.Time
	sub  reply
	down colDown
	up   colUp
}

// startCollect begins n's epoch of phase ph; parent is the edge its
// reply leaves on, nil at the walk's root. A childless node completes
// synchronously on the caller's stack — no walk objects. An internal
// node's machine moves into its phase's slab, so neither phase's walk
// objects carry the other's machine.
//
//lbvet:hotpath
func (rd *round) startCollect(ph phase, n *ktree.Node, parent *colEdge) {
	// One chase through Host.Owner serves the aliveness check and the
	// endpoint index; the parent's edge already resolved ours.
	owner := n.Host.Owner
	if !owner.Alive {
		return // a dead KT node never replies
	}
	ni := owner.Index
	if parent != nil {
		ni = parent.chi
	}
	k := len(n.Children)
	var col collector
	if ph == phaseLBI {
		m := lbnode.MakeLBICollect(rd.lbiInbox[n], k)
		if k == 0 {
			rd.report(n, &m, parent)
			return
		}
		p := slabAlloc(&rd.lbiCols)
		*p = m
		col = p
	} else {
		m := lbnode.MakeVSACollect(rd.vsaInbox[n], k)
		if k == 0 {
			rd.report(n, &m, parent)
			return
		}
		p := slabAlloc(&rd.vsaCols)
		*p = m
		col = p
	}
	nd := slabAlloc(&rd.colNodes)
	nd.rd, nd.n, nd.ni, nd.ph, nd.col, nd.parent = rd, n, ni, ph, col, parent
	nd.expireEv.nd = nd
	for ci, c := range n.Children {
		e := slabAlloc(&rd.colEdges)
		e.nd, e.c, e.ci, e.chi = nd, c, ci, hostIdx(c)
		e.edge = rd.r.tree.EdgeLatency(c)
		e.down.e, e.up.e = e, e
		// Under a filter both directions are acked and retransmitted: a
		// lost pull would silence the child's whole subtree, compounding
		// per level, so the epoch timeout is reserved for genuinely dead
		// subtrees. The reply is fed exactly once (receiver dedup).
		rd.walkSend(walkKinds[ph].pull, c, ni, e.chi, e.edge, &e.down, &e.down)
	}
	// The epoch timer is canceled the moment the last child replies —
	// on a healthy tree no epoch timer ever fires.
	nd.expire = rd.after(rd.epochWindow(n), &nd.expireEv)
}

// report routes n's closed epoch: up the parent edge, or into the
// round's continuation at the walk's root. An LBI epoch reports its
// aggregate. A VSA epoch first pairs what it can as a rendezvous point
// (threshold reached, or the tree's root) and reports the unpaired rest.
//
//lbvet:hotpath
func (rd *round) report(n *ktree.Node, col collector, parent *colEdge) {
	var out reply
	switch m := col.(type) {
	case *lbnode.LBICollect:
		out.agg = m.Aggregate()
	case *lbnode.VSACollect:
		for _, p := range m.Rendezvous(n.Parent == nil, rd.cfg().RendezvousThreshold, rd.global.Lmin) {
			rd.emitPair(n, p)
		}
		out.list = m.Lists()
	}
	if parent == nil {
		rd.onRoot(out)
		return
	}
	rd.sendUp(parent, out)
}

// sendUp sends a subtree's reply up edge e to the parent.
//
//lbvet:hotpath
func (rd *round) sendUp(e *colEdge, out reply) {
	e.sub = out
	rd.walkSend(walkKinds[e.nd.ph].reply, e.c, e.chi, e.nd.ni, e.edge, &e.up, &e.up)
}

type colDown struct{ e *colEdge }

// HandleMsg: the downward pull reached the child — start its epoch, or
// at a root child of a forked phase, replay its worker's.
//
//lbvet:hotpath
func (d *colDown) HandleMsg() bool {
	e := d.e
	nd := e.nd
	if nd.parent == nil && nd.rd.forked(nd.ph, nd.n) {
		nd.rd.join(e)
		return true
	}
	nd.rd.startCollect(nd.ph, e.c, e)
	return true
}

func (d *colDown) SettleMsg(bool) {}

// RunEvent is the pull's arrival on a lossless engine (see walkSend).
//
//lbvet:hotpath
func (d *colDown) RunEvent() {
	e := d.e
	rd := e.nd.rd
	rd.walkArrive(d, walkKinds[e.nd.ph].pullAck, e.chi, e.nd.ni, e.edge, &rd.collectAck)
}

type colUp struct{ e *colEdge }

// HandleMsg: the child subtree's reply reached the parent. A reply
// after the epoch closed is absorbed by the machine — still acked so
// the child stops resending. LBI replies are buffered under their child
// index, so the fold order (and the global's float bits) is the same no
// matter when each subtree answers.
//
//lbvet:hotpath
func (u *colUp) HandleMsg() bool {
	e := u.e
	nd := e.nd
	var done bool
	switch m := nd.col.(type) {
	case *lbnode.LBICollect:
		done = m.ChildReply(e.ci, e.sub.agg)
	case *lbnode.VSACollect:
		done = m.ChildReply(e.sub.list)
	}
	if done {
		nd.rd.cancel(nd.expire)
		nd.rd.report(nd.n, nd.col, nd.parent)
	}
	return true
}

func (u *colUp) SettleMsg(bool) {}

// RunEvent is the reply's arrival on a lossless engine (see walkSend).
//
//lbvet:hotpath
func (u *colUp) RunEvent() {
	e := u.e
	rd := e.nd.rd
	rd.walkArrive(u, walkKinds[e.nd.ph].replyAck, e.nd.ni, e.chi, e.edge, &rd.collectAck)
}

// colExpire fires the epoch timeout: give up on the silent children
// and report what arrived.
type colExpire struct{ nd *colNode }

func (x *colExpire) RunEvent() {
	nd := x.nd
	nd.rd.own--
	if timedOut, expired := nd.col.Expire(); expired {
		nd.rd.res.TimedOutChildren += timedOut
		nd.rd.report(nd.n, nd.col, nd.parent)
	}
}

// disseminate pushes the global tuple down the tree; each leaf delivery
// classifies its host's owner node (once) and triggers publication.
// Downward copies are acked and retransmitted: losing one would
// silently leave a whole subtree unclassified for the round, a much
// worse failure than the extra ack traffic. The publishing counter is
// settled on the sender side — exactly once per edge, whether the copy
// landed (ack) or the retries ran dry — so the VSA epoch always starts.
func (rd *round) disseminate(n *ktree.Node) {
	rd.publishing++ // guards VSA start until this subtree finishes
	rd.dispWalk(n)
	rd.publishDone()
}

// dispWalk delivers the global tuple to n and pushes it on to n's
// children over slab-pooled per-edge handlers.
//
//lbvet:hotpath
func (rd *round) dispWalk(n *ktree.Node) {
	owner := n.Host.Owner
	if !owner.Alive {
		return
	}
	if n.IsLeaf() {
		rd.classifyAndPublish(owner)
		return
	}
	ni := owner.Index
	for _, c := range n.Children {
		e := slabAlloc(&rd.dispEdges)
		e.rd, e.c = rd, c
		e.src, e.dst, e.cost = ni, hostIdx(c), rd.r.tree.EdgeLatency(c)
		e.ack.e = e
		rd.publishing++
		rd.walkSend(MsgDisperse, c, e.src, e.dst, e.cost, e, e)
	}
}

// dispEdge is one downward dissemination hop: the arriving copy
// continues the walk below c; settling (acked or drained) releases the
// publishing guard. Under a filter the exchange settles it; on a
// lossless engine the copy's own ack, delivered back to the sender,
// does (see walkSend).
type dispEdge struct {
	rd       *round
	c        *ktree.Node
	src, dst int
	cost     sim.Time
	ack      dispAck
}

//lbvet:hotpath
func (e *dispEdge) HandleMsg() bool {
	e.rd.dispWalk(e.c)
	return true
}

func (e *dispEdge) SettleMsg(bool) { e.rd.publishDone() }

// RunEvent is the copy's arrival on a lossless engine.
//
//lbvet:hotpath
func (e *dispEdge) RunEvent() {
	e.rd.walkArrive(e, MsgDisperse+MsgAckSuffix, e.dst, e.src, e.cost, &e.ack)
}

// dispAck is the ack's arrival back at the sender on a lossless
// engine: the settle step the exchange would have run, at the same
// tick.
type dispAck struct{ e *dispEdge }

//lbvet:hotpath
func (a *dispAck) RunEvent() {
	a.e.rd.own--
	a.e.rd.publishDone()
}

// classifyAndPublish runs classification on a node the first time the
// global tuple reaches it (the roster machine absorbs duplicates), and
// publishes its VSA information.
func (rd *round) classifyAndPublish(node *chord.Node) {
	st, ok := rd.roster.Classify(node, rd.global, rd.cfg().Epsilon, rd.cfg().Subset)
	if !ok {
		return
	}
	rd.res.NodesClassified++
	if t := rd.r.eng.Now() - rd.start; t > rd.res.TimeLBIDisseminate {
		rd.res.TimeLBIDisseminate = t
	}
	if st.Class == core.Neutral {
		return
	}
	eng := rd.r.eng
	switch rd.cfg().Mode {
	case core.ProximityIgnorant:
		// The advertisement leaf was drawn in the placement pre-pass —
		// not here at event time — so it does not depend on the order in
		// which the global tuple reaches the nodes.
		// A node that joined after the placement lies past VSALeaf's
		// end and sits the round out.
		if i := node.Index; i < len(rd.place.VSALeaf) && rd.place.VSALeaf[i] != nil {
			rd.depositAt(rd.place.VSALeaf[i], st, 0)
		}
	case core.ProximityAware:
		key := rd.cfg().Mapper.Key(node.Underlay)
		group := uint64(key)
		if cm, ok := rd.cfg().Mapper.(core.CellMapper); ok {
			group = cm.Cell(node.Underlay)
		}
		// Routed publication: the advertisement travels through the
		// overlay to the key's owner.
		rd.publishing++
		rd.r.ring.Lookup(node, key, func(res chord.LookupResult) {
			eng.CountMessage(MsgPublish, 1)
			rd.deposit(res.VS, st, group)
			if t := rd.r.eng.Now() - rd.start; t > rd.res.TimePublish {
				rd.res.TimePublish = t
			}
			rd.publishDone()
		})
	}
}

func (rd *round) cfg() core.Config { return rd.r.cfg.Core }

// deposit stores a node's VSA entries at the given virtual server's
// reporting leaf.
func (rd *round) deposit(vs *chord.VServer, st *core.NodeState, group uint64) {
	// The placement's per-VS cache: a lazy draw never contradicts a
	// placed report. A virtual server that joined since the last repair
	// (a restarted node rejoining mid-round) has no leaves until Repair
	// plants them, so the advertisement waits for the next round.
	leaf := rd.place.LeafOf(vs, rd.r.eng.Rand())
	if leaf == nil {
		return
	}
	rd.depositAt(leaf, st, group)
}

// depositAt stores a node's VSA entries at an already-resolved leaf.
func (rd *round) depositAt(leaf *ktree.Node, st *core.NodeState, group uint64) {
	pl := rd.vsaInbox[leaf]
	if pl == nil {
		pl = &core.PairList{}
		rd.vsaInbox[leaf] = pl
	}
	pl.Deposit(st, group)
}

// publishDone decrements the outstanding-publication counter; at zero,
// every advertisement has landed and the VSA epoch begins.
func (rd *round) publishDone() {
	rd.publishing--
	if rd.publishing > 0 {
		return
	}
	rd.startVSA()
}

// startVSA runs the VSA converge-cast from the root.
func (rd *round) startVSA() {
	rd.res.HeavyBefore, rd.res.LightBefore, rd.res.NeutralBefore = rd.roster.Census()
	rd.collect(phaseVSA, func(out reply) {
		rd.res.TimeVSAComplete = rd.r.eng.Now() - rd.start
		rd.res.UnassignedOffers = out.list.Offers()
		rd.res.UnassignedLoad = out.list.OfferLoad()
		rd.vsaDone = true
		rd.maybeFinish()
	})
}

// emitPair sends the pairing to both endpoints and starts the two-phase
// handoff. The heavy endpoint's notification is reliable (it drives the
// transfer); the light endpoint's copy is informational — the prepare
// phase re-validates the receiver — so it rides an unreliable send.
func (rd *round) emitPair(rendezvous *ktree.Node, p core.Pair) {
	if w := rd.worker; w != nil {
		// Forked subtree: pairing side effects (handoffs mutate the
		// shared ring) are recorded at their offset into the phase and
		// replayed on the root engine at the join.
		w.pairs = append(w.pairs, timedPair{at: rd.r.eng.Now() - w.start, n: rendezvous, p: p})
		return
	}
	eng := rd.r.eng
	host := rendezvous.Host.Owner
	costFrom := rd.r.ring.Latency(host, p.From) + 1
	costTo := rd.r.ring.Latency(host, p.To) + 1
	rd.outstandingTransfers++
	h := &handoff{rd: rd, rendezvous: rendezvous, m: lbnode.NewHandoff(p), assignedAt: eng.Now() - rd.start}
	h.assign.h, h.prep.h, h.commitH.h, h.notice.h = h, h, h, h
	from := nodeKey(rendezvous)
	rd.deliver(MsgAssign, msgKey(rd.ord, MsgAssign, from, handoffKey(p, p.To.Index)), host.Index, p.To.Index, costTo, &h.notice)
	rd.reliableEv(MsgAssign, from, handoffKey(p, p.From.Index), host.Index, p.From.Index, costFrom, &h.assign)
}

// handoff drives one lbnode.Handoff machine — the two-phase
// virtual-server transfer for one pairing — over the reliable-delivery
// transport. The machine owns the phase logic (validate, reserve,
// exactly-once commit, abort); this wrapper owns delivery, retries and
// the round's accounting. Each handoff settles exactly once (PhaseDone
// or PhaseAborted), releasing the round's outstanding-transfer slot.
type handoff struct {
	rd         *round
	rendezvous *ktree.Node
	m          *lbnode.Handoff
	assignedAt sim.Time
	cost       sim.Time // heavy → light latency, fixed at prepare time

	// The three phases' reliable-exchange handler roles, embedded so a
	// handoff costs one allocation total (see rhandler).
	assign  assignH
	prep    prepareH
	commitH commitH
	notice  noticeEv // the light endpoint's informational copy
}

// noticeEv is the light endpoint's assignment copy arriving: nothing
// acts on it (the prepare phase re-validates the receiver).
type noticeEv struct{ h *handoff }

func (n *noticeEv) RunEvent() { n.h.rd.own-- }

// assignH: the rendezvous→heavy assignment message.
type assignH struct{ h *handoff }

func (a *assignH) HandleMsg() bool {
	// ack=false models a dead heavy endpoint: silent, no ack.
	ack, op := a.h.m.AssignReceived()
	a.h.apply(op)
	return ack
}

func (a *assignH) SettleMsg(ok bool) {
	if !ok {
		a.h.apply(a.h.m.Fail())
	}
}

// prepareH: the heavy→light reservation. Acceptance (the machine, while
// the receiver is alive and the pairing unsettled) is the ack; a dead
// receiver is silent and the sender's retries drain into an abort.
type prepareH struct{ h *handoff }

func (pr *prepareH) HandleMsg() bool { return pr.h.m.PrepareReceived() }

func (pr *prepareH) SettleMsg(ok bool) {
	if !ok {
		pr.h.apply(pr.h.m.Fail())
		return
	}
	pr.h.apply(pr.h.m.PrepareAcked())
}

// commitH: the heavy→light VS shipment. The FIRST commit copy the
// machine accepts applies ring.Transfer — the dedup set plus the
// machine's exactly-once contract make duplicated or retransmitted
// commits idempotent, so the VS is moved exactly once and never
// double-hosted.
type commitH struct{ h *handoff }

func (c *commitH) HandleMsg() bool {
	if !c.h.m.TransferReceived() {
		return false
	}
	c.h.complete()
	return true
}

func (c *commitH) SettleMsg(ok bool) {
	if !ok {
		c.h.apply(c.h.m.Fail())
	}
}

// apply performs the outgoing action a machine transition requested.
func (h *handoff) apply(op lbnode.HandoffOp) {
	switch op {
	case lbnode.OpPrepare:
		h.prepare()
	case lbnode.OpCommit:
		h.commit()
	case lbnode.OpAbort:
		h.rd.res.AbortedTransfers++
		h.rd.transferDone()
	}
}

// prepare sends the reservation heavy → light.
func (h *handoff) prepare() {
	p := h.m.Pair
	h.cost = h.rd.r.ring.Latency(p.From, p.To) + 1
	h.rd.reliableEv(MsgPrepare, uint64(p.From.Index), handoffKey(p, p.To.Index), p.From.Index, p.To.Index, h.cost, &h.prep)
}

// commit ships the VS once the reservation is acknowledged.
func (h *handoff) commit() {
	p := h.m.Pair
	h.rd.reliableEv(MsgTransfer, uint64(p.From.Index), handoffKey(p, p.To.Index), p.From.Index, p.To.Index, h.cost, &h.commitH)
}

// complete applies the transfer at the receiver on the commit copy the
// machine accepted — the single point where ring state changes hands.
func (h *handoff) complete() {
	rd := h.rd
	p := h.m.Pair
	rd.r.ring.Transfer(p.VS, p.To)
	hops := rd.transferCost(p.From, p.To)
	rd.res.Assignments = append(rd.res.Assignments, core.Assignment{
		VS: p.VS, From: p.From, To: p.To, Load: p.Load,
		Hops: hops, AssignedAt: h.assignedAt, Depth: h.rendezvous.Depth,
	})
	rd.res.MovedLoad += p.Load
	rd.res.MovedByHops.Add(hops, p.Load)
	if t := rd.r.eng.Now() - rd.start; t > rd.res.TimeVSTComplete {
		rd.res.TimeVSTComplete = t
	}
	rd.transferDone()
}

func (rd *round) transferCost(from, to *chord.Node) int {
	if tc := rd.cfg().TransferCost; tc != nil {
		return tc(from, to)
	}
	return int(rd.r.ring.Latency(from, to))
}

func (rd *round) transferDone() {
	rd.outstandingTransfers--
	rd.maybeFinish()
}

// maybeFinish closes the round when the VSA sweep and every transfer
// have completed: final census, lazy KT migration (tree repair), and
// the caller's completion callback.
func (rd *round) maybeFinish() {
	if !rd.vsaDone || rd.outstandingTransfers > 0 {
		return
	}
	rd.res.HeavyAfter, rd.res.LightAfter, rd.res.NeutralAfter =
		core.Census(rd.r.ring.Nodes(), rd.global, rd.cfg().Epsilon)
	if _, err := rd.r.tree.Repair(); err != nil {
		rd.done(nil, err)
		return
	}
	rd.done(rd.res, nil)
}
