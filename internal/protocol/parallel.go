// Forked execution of the root's child subtrees.
//
// The LBI and VSA converge-casts have a strict locality property: until
// a subtree's aggregate reaches the root, every message either stays
// inside one root-child subtree or travels on the root↔child edge. The
// subtrees share no protocol state — the per-leaf inboxes, the per-node
// collect machines and the sequence space partition cleanly — and under
// a fault filter whose decisions are keyed by message (sim.ForkFilter;
// faults.Injector without partitions or crashes) a message meets the
// same fate whichever engine sends it. So each subtree's phase can be
// simulated to completion on its own engine, ahead of the root's clock
// (the conservative lookahead: the whole phase).
//
// That lookahead is sound only while nothing outside the round can
// touch the world before the phase ends, so each collect phase decides
// at the root's first down-arrival and forks only when all of these
// hold:
//
//   - the engine has no filter, or its filter is a sim.ForkFilter that
//     gives every worker engine a private instance (Fork returns nil
//     for plans with partitions, which depend on absolute time, or
//     crashes, which change the ring);
//   - the engine is draining in Run (sim.Engine.Draining), so no caller
//     can change the world between two events — under Step or RunUntil
//     it can;
//   - every event pending on the root engine is one the round itself
//     scheduled (round.own counts them: message copies, timers and
//     replays; on a lossless engine that is its deadline, the root's
//     epoch timer and the phase's other downs, and under loss also
//     retransmission timers and late copies of earlier phases) — or the
//     ring's membership is frozen (chord.Ring.FreezeMembership). A
//     foreign event — a ticker, a scheduled crash — could otherwise fire
//     mid-phase and change what the walk reads. On a frozen ring it
//     cannot: a collect walk reads the tree's shape, Host.Owner, Alive,
//     Index, underlay latency and the round's own inboxes, and with
//     joins and leaves forbidden only the round's own handoffs change
//     any of them (the tree's repair journal fills only from joins and
//     leaves). This is how a served ring's rounds fork beside the
//     request traffic pending on the root.
//
// Otherwise the phase runs the sequential walk, event for event. The
// rule reads only simulation state, never GOMAXPROCS or timing.
//
// A fork runs every root child's phase at once, one goroutine per
// child on that child's worker engine, and the deciding event returns
// only when all of them have finished: no worker ever runs beside a
// root event. Foreign events pending on the root (a served ring's
// requests) wait for the join and keep their simulated times. A round
// keeps one worker engine and sub-round per root child for both
// phases. Worker seeds derive from the root engine's seed and the
// child index WITHOUT consuming the root RNG — a draw would shift every
// later draw (lazy advertisement placement, subset strategies) and
// break equivalence with the sequential walk. The collect walks
// themselves consume no randomness; the derived seed exists so that
// any future stray draw diverges loudly per worker instead of silently
// corrupting the shared stream.
//
// The root drives the phase exactly like the sequential walk: it sends
// the phase's real pulls (MsgCollectDown or MsgVSADown) on its own
// engine, and each child's down-arrival runs the one join for either
// phase. The join replays the subtree's externally visible effects at
// their offsets from the phase's start on the worker:
//
//   - the worker's executed events, message tallies and drops fold into
//     the root engine and its filter (sim.Engine.Absorb) and its failure
//     counters into the round's result;
//   - rendezvous pairings emitted inside the subtree are re-run on the
//     root engine at their emission times (handoffs mutate the shared
//     ring, so they must execute under the root's clock); an LBI phase
//     replays none, since it emits none and every phase starts its
//     workers with an empty record;
//   - the child's reply (MsgReportUp or MsgVSAUp) is sent at the child's
//     completion time.
//
// Equivalence with the sequential walk: on a lossless engine the global
// tuple, the census, the message tallies, the transfer sequence and
// every node's VS order are identical; Executed counts one extra event
// per live root child per forked phase (the replayed reply) and one per
// replayed pairing. TestParallelSubtreesEquivalence pins all of this,
// and TestParallelSubtreesBesideTraffic pins it beside a lookup a tick.
// Under loss two things differ, and TestParallelSubtreesEquivalenceUnderLoss
// bounds both. Transfers commit at the same ticks, but replayed pairings
// are scheduled at the join, so the order within a tick may differ. And
// a worker cannot know when the round will finish, so it handles, acks
// and retransmits the late copies the sequential walk drops once the
// round has finished (round.late): the forked round may count more
// retries, messages and drops on the collect phases' kinds, never fewer.
//
// One tie is new beside traffic: a replayed pairing is scheduled at the
// join, so within its tick it runs after a foreign event scheduled
// earlier for the same tick that, in the sequential walk, it preceded.
// That differs only if a request reading the moved VS's owner lands on
// the handoff's commit tick through a chain of same-tick events.
package protocol

import (
	"sync"

	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
)

// neverFork makes every phase take the sequential walk. Tests set it
// to obtain the reference a forked run must reproduce; nothing else
// does.
var neverFork bool

// forkState is a collect phase's fork decision.
type forkState uint8

const (
	forkUndecided forkState = iota
	forkOn
	forkOff
)

// timedPair is a rendezvous pairing recorded inside a worker, stamped
// with its offset from the phase's start on the worker engine.
type timedPair struct {
	at sim.Time
	n  ktree.Handle
	p  core.Pair
}

// subWorker is one root-child subtree's worker for the whole round. Its
// goroutine writes the phase outcome; the root reads it only after the
// fork's WaitGroup (the happens-before edge).
type subWorker struct {
	eng   *sim.Engine
	sub   *round
	res   Result
	start sim.Time    // the current phase's start on eng
	ok    bool        // the child completed its epoch (false: dead subtree, never replies)
	dur   sim.Time    // the child's completion, from start
	out   reply       // the child's reply
	pairs []timedPair // deferred rendezvous pairings (none in the LBI phase)
}

// deriveSeed mixes a per-child worker seed out of the root engine's
// seed (splitmix64) without touching the root RNG.
func deriveSeed(base int64, child int) int64 {
	return int64(sim.Mix64(uint64(base) + uint64(child+1)*0x9E3779B97F4A7C15))
}

// newWorker builds a worker: same ring, tree, config, round ordinal and
// (read-only during a phase) inboxes as the round, but its own engine,
// filter instance, sequence space, dedup set and result counters. A
// worker never forks again.
func (rd *round) newWorker(seed int64, filter sim.MessageFilter) *subWorker {
	w := &subWorker{eng: sim.NewEngine(seed)}
	w.eng.SetFilter(filter)
	w.sub = &round{
		r:        &Runner{ring: rd.r.ring, tree: rd.r.tree, cfg: rd.r.cfg, eng: w.eng},
		ord:      rd.ord,
		timeout:  rd.timeout,
		lbiInbox: rd.lbiInbox,
		vsaInbox: rd.vsaInbox,
		res:      &w.res,
		worker:   w,
		fork:     [2]forkState{forkOff, forkOff},
	}
	w.sub.onRoot = w.done
	w.sub.collectAck.rd = w.sub
	return w
}

func (w *subWorker) done(out reply) {
	w.ok, w.out, w.dur = true, out, w.eng.Now()-w.start
}

// forked reports whether collect phase ph runs on the workers; root is
// the walk's root. The phase's first root-child down-arrival decides,
// and a fork runs every child's phase to completion before it returns.
func (rd *round) forked(ph phase, root ktree.Handle) bool {
	state := &rd.fork[ph]
	if *state == forkUndecided {
		*state = forkOff
		if rd.lookaheadSafe() && rd.makeWorkers(rd.r.tree.NumChildren(root)) {
			*state = forkOn
			rd.r.forks++
			rd.runWorkers(ph, root)
		}
	}
	return *state == forkOn
}

// lookaheadSafe is the fork rule of the file comment, evaluated inside
// the phase's first root-child down-arrival: every event pending on the
// engine is the round's own (own) — unless the ring's membership is
// frozen, when nothing else pending can change what the phase reads.
func (rd *round) lookaheadSafe() bool {
	eng := rd.r.eng
	return !neverFork && eng.Draining() &&
		(eng.Pending() == rd.own || rd.r.ring.MembershipFrozen())
}

// makeWorkers gives the round one worker per root child, once, each
// with its own instance of the engine's filter. It reports false, and
// makes none, when the engine's filter cannot fork (sim.ForkFilter).
func (rd *round) makeWorkers(children int) bool {
	if rd.workers != nil {
		return true
	}
	filters := make([]sim.MessageFilter, children)
	if f := rd.r.eng.Filter(); f != nil {
		ff, ok := f.(sim.ForkFilter)
		if !ok {
			return false
		}
		for ci := range filters {
			if filters[ci] = ff.Fork(); filters[ci] == nil {
				return false
			}
		}
	}
	rd.workers = make([]*subWorker, children)
	for ci := range rd.workers {
		rd.workers[ci] = rd.newWorker(deriveSeed(rd.r.eng.Seed(), ci), filters[ci])
	}
	return true
}

// runWorkers simulates every root child's phase ph on its worker, in
// parallel, and waits for all of them.
func (rd *round) runWorkers(ph phase, root ktree.Handle) {
	var wg sync.WaitGroup
	tree := rd.r.tree
	ci := 0
	for c := tree.FirstChild(root); !c.IsNil(); c, ci = tree.NextSibling(c), ci+1 {
		w := rd.workers[ci]
		// A deposit since the last phase may have grown the VSA inbox.
		w.sub.global, w.sub.vsaInbox = rd.global, rd.vsaInbox
		w.start, w.ok, w.pairs = w.eng.Now(), false, w.pairs[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.sub.startCollect(ph, c, nil)
			w.eng.Run()
		}()
	}
	wg.Wait()
}

// absorb folds root child ci's finished phase into the round — events,
// message tallies and drops into the root engine and its filter,
// failure counters into the result — and clears them on the worker for
// its next phase.
func (rd *round) absorb(ci int) *subWorker {
	w := rd.workers[ci]
	rd.r.eng.Absorb(w.eng)
	rd.res.Retries += w.res.Retries
	rd.res.TimedOutChildren += w.res.TimedOutChildren
	w.res = Result{}
	return w
}

// join runs at a forked child's down-arrival on edge e. The subtree's
// pairings replay at their emission offsets, and its reply leaves at
// the child's completion offset. Pairings are scheduled before the
// reply so that a pairing and the reply landing on the same instant
// keep their worker-side emission order. A dead subtree still acks the
// pull (as in the sequential walk, where aliveness gates the walk, not
// the transport) and simply never replies, leaving the root's epoch
// timer to expire.
func (rd *round) join(e *colEdge) {
	w := rd.absorb(e.ci)
	if !w.ok {
		return
	}
	for _, tp := range w.pairs {
		rd.schedule(tp.at, func() {
			rd.own--
			if rd.r.tree.Follow(tp.n) {
				rd.emitPair(tp.n, tp.p)
			}
		})
	}
	out := w.out
	rd.schedule(w.dur, func() {
		rd.own--
		rd.sendUp(e, out)
	})
}
