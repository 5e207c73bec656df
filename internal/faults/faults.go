// Package faults is the deterministic fault-injection layer: it decides
// the fate of every message the simulation offers to sim.Engine.DeliverEv
// — dropped, duplicated, delayed — and executes scheduled node
// crash/restart plans and underlay partitions, all as a pure function of
// (seed, Plan).
//
// Determinism is the load-bearing property. A message's fate is a pure
// function of its identity: the drop decision, the duplication decision
// and each copy's jitter are splitmix64 hashes of (fault-class seed,
// message key, copy), where the class seeds derive from (seed, class
// name) and the key is the sender's identity for the message
// (sim.MessageFilter; internal/protocol builds it from the round, the
// kind, the tree edge or handoff, and the attempt). No decision depends
// on how many messages were offered before it, or in what order, so a
// subtree simulated on its own engine draws the fates the sequential
// walk draws (Fork). Partition windows are functions of time, and
// restart identifiers come from the injector's one RNG stream; neither
// touches the engine RNG, so attaching an Injector with an empty Plan
// perturbs nothing — the run stays byte-identical to one without a
// fault layer. The injector, like the engine it filters, is
// single-goroutine: multi-trial sweeps build one injector per trial
// engine, and forked phases give each worker its own Fork (the
// randcontract analyzer enforces this, exactly as it does for
// Engine.Rand).
//
// What can be injected:
//
//   - per-kind (or uniform) message drop and duplication probabilities
//   - extra per-copy latency jitter, uniform in [0, JitterMax]
//   - scheduled node crashes with optional restarts (the restarted node
//     rejoins as a fresh ring member with the crashed node's underlay
//     position, capacity and virtual-server count)
//   - underlay partitions: an arbitrary node bipartition, or a transit
//     domain cut computed by DomainCut, active for a time window —
//     messages crossing the cut are dropped in both directions
//
// The layers above (internal/protocol's acks/retries and two-phase VST
// handoff) are hardened to keep load conserved under any of these; the
// chord.Ring.CheckConservation checker verifies it after every round in
// the fault tests.
package faults

import (
	"fmt"
	"math/bits"
	"math/rand"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// Partition isolates a set of nodes for a window of virtual time:
// while From <= now < Until, messages between a node in Side and a node
// outside it are dropped (both directions). Side holds physical-node
// indexes (chord.Node.Index); nodes created after the plan was written
// (restarts, joins) have fresh indexes and therefore sit outside Side.
type Partition struct {
	From, Until sim.Time
	Side        []int
}

// Crash schedules one node failure: node Node (a chord.Node.Index)
// crashes at time At; if Restart is nonzero it must be later than At,
// and a replacement node rejoins then with the crashed node's underlay
// position, capacity and virtual-server count (fresh identifiers drawn
// from the injector's restart stream — a restart is a re-join, not a
// resurrection, so the replacement has a fresh index).
type Crash struct {
	At      sim.Time
	Node    int
	Restart sim.Time
}

// Plan declares what to inject. The zero value injects nothing.
type Plan struct {
	// Drop is the uniform per-message drop probability; DropByKind
	// overrides it for specific message kinds.
	Drop       float64
	DropByKind map[string]float64
	// Duplicate is the per-message duplication probability (a duplicated
	// message is delivered twice); DuplicateByKind overrides per kind.
	Duplicate       float64
	DuplicateByKind map[string]float64
	// JitterMax adds uniform extra latency in [0, JitterMax] to every
	// delivered copy. 0 disables jitter.
	JitterMax sim.Time
	// Partitions and Crashes are executed on attach; windows and times
	// are absolute virtual times.
	Partitions []Partition
	Crashes    []Crash
}

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return p.Drop == 0 && len(p.DropByKind) == 0 &&
		p.Duplicate == 0 && len(p.DuplicateByKind) == 0 &&
		p.JitterMax == 0 && len(p.Partitions) == 0 && len(p.Crashes) == 0
}

// Validate checks the plan's ranges.
func (p Plan) Validate() error {
	checkRate := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", name, v)
		}
		return nil
	}
	if err := checkRate("drop", p.Drop); err != nil {
		return err
	}
	if err := checkRate("duplicate", p.Duplicate); err != nil {
		return err
	}
	for k, v := range p.DropByKind {
		if err := checkRate("drop["+k+"]", v); err != nil {
			return err
		}
	}
	for k, v := range p.DuplicateByKind {
		if err := checkRate("duplicate["+k+"]", v); err != nil {
			return err
		}
	}
	if p.JitterMax < 0 {
		return fmt.Errorf("faults: negative jitter %d", p.JitterMax)
	}
	for i, w := range p.Partitions {
		if w.Until <= w.From {
			return fmt.Errorf("faults: partition %d window [%d,%d) is empty", i, w.From, w.Until)
		}
		if len(w.Side) == 0 {
			return fmt.Errorf("faults: partition %d has an empty side", i)
		}
	}
	for i, c := range p.Crashes {
		if c.At < 0 || c.Node < 0 {
			return fmt.Errorf("faults: crash %d has negative time or node", i)
		}
		if c.Restart != 0 && c.Restart <= c.At {
			return fmt.Errorf("faults: crash %d restarts at %d, not after crash at %d", i, c.Restart, c.At)
		}
	}
	return nil
}

// deriveSeed derives an independent seed from the base seed and a
// fault-class tag (FNV-1a over the tag, mixed with the seed), so each
// fault class decides independently of the others.
func deriveSeed(seed int64, class string) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(class); i++ {
		h ^= uint64(class[i])
		h *= fnvPrime
	}
	return int64(uint64(seed)*0x9E3779B97F4A7C15 ^ h)
}

// fate hashes (class seed, message key, copy) to 64 uniform bits.
func fate(class, key, copy uint64) uint64 {
	return sim.Mix64(class ^ sim.Mix64(key+copy*0x9E3779B97F4A7C15))
}

// below reports whether the hash, read as a uniform draw from [0, 1),
// falls below rate.
func below(h uint64, rate float64) bool {
	return float64(h>>11)*0x1p-53 < rate
}

// Injector implements sim.MessageFilter for one engine. Like the engine
// it filters, it is single-goroutine; per-trial sweeps create one per
// trial, and each forked worker engine gets its own Fork.
type Injector struct {
	plan Plan
	ring *chord.Ring
	eng  *sim.Engine

	// Seeds of the three keyed fault classes.
	dropSeed, dupSeed, jitterSeed uint64
	ids                           *rand.Rand // restart identifiers
	sides                         []map[int]bool
	scratch                       [2]sim.Time

	dropped    int64
	duplicated int64
	crashed    int
	restarted  int

	mDropped, mDuplicated *metrics.Counter
}

// New returns an unattached injector for the plan. The seed is the
// fault layer's own base seed — conventionally the engine seed, but any
// value works; it only has to be fixed for reproducibility.
func New(seed int64, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:       plan,
		dropSeed:   uint64(deriveSeed(seed, "drop")),
		dupSeed:    uint64(deriveSeed(seed, "duplicate")),
		jitterSeed: uint64(deriveSeed(seed, "jitter")),
		ids:        rand.New(rand.NewSource(deriveSeed(seed, "restart-ids"))),
	}
	for _, w := range plan.Partitions {
		side := make(map[int]bool, len(w.Side))
		for _, idx := range w.Side {
			side[idx] = true
		}
		in.sides = append(in.sides, side)
	}
	return in, nil
}

// Attach installs the injector as the ring engine's message filter and
// schedules the plan's crash/restart events (absolute times; events in
// the past fire immediately). Attach once, before the simulation runs.
func (in *Injector) Attach(ring *chord.Ring) error {
	if in.ring != nil {
		return fmt.Errorf("faults: injector already attached")
	}
	in.ring = ring
	in.eng = ring.Engine()
	in.eng.SetFilter(in)
	in.mDropped = in.eng.Metrics().Counter("faults.dropped")
	in.mDuplicated = in.eng.Metrics().Counter("faults.duplicated")
	for _, c := range in.plan.Crashes {
		c := c
		delay := c.At - in.eng.Now()
		if delay < 0 {
			delay = 0
		}
		in.eng.ScheduleEv(delay, sim.Func(func() { in.crash(c) }))
	}
	return nil
}

// Detach removes the injector from its engine; scheduled crash events
// already queued still fire.
func (in *Injector) Detach() {
	if in.eng != nil {
		in.eng.SetFilter(nil)
	}
}

// Dropped returns how many messages the injector dropped (loss and
// partition cuts combined), its joined forks' included.
func (in *Injector) Dropped() int64 { return in.dropped }

// Duplicated returns how many messages were delivered twice, its joined
// forks' included.
func (in *Injector) Duplicated() int64 { return in.duplicated }

// Crashes returns how many scheduled crashes have executed.
func (in *Injector) Crashes() int { return in.crashed }

// Restarts returns how many crashed nodes have rejoined.
func (in *Injector) Restarts() int { return in.restarted }

// Deliveries implements sim.MessageFilter: partition cuts first (a
// function of time), then the keyed drop decision, the keyed
// duplication decision (each only when the kind has a nonzero rate)
// and one keyed jitter per copy. The same (kind, key) always meets the
// same fate, whatever was offered before it.
func (in *Injector) Deliveries(kind string, key uint64, src, dst int, now, cost sim.Time) []sim.Time {
	if in.cut(src, dst, now) {
		in.countDrop()
		return nil
	}
	if rate := rateFor(in.plan.Drop, in.plan.DropByKind, kind); rate > 0 && below(fate(in.dropSeed, key, 0), rate) {
		in.countDrop()
		return nil
	}
	copies := 1
	if rate := rateFor(in.plan.Duplicate, in.plan.DuplicateByKind, kind); rate > 0 && below(fate(in.dupSeed, key, 0), rate) {
		copies = 2
		in.duplicated++
		in.mDuplicated.Inc()
	}
	out := in.scratch[:0]
	for i := 0; i < copies; i++ {
		var extra sim.Time
		if in.plan.JitterMax > 0 {
			hi, _ := bits.Mul64(fate(in.jitterSeed, key, uint64(i)), uint64(in.plan.JitterMax)+1)
			extra = sim.Time(hi)
		}
		out = append(out, extra)
	}
	return out
}

// Fork implements sim.ForkFilter: a private injector with the same
// keyed fates and zeroed counters, for a worker engine. Plans with
// partitions (functions of absolute time) or crashes (which change the
// ring) get none, so the rounds they filter stay on one engine.
func (in *Injector) Fork() sim.MessageFilter {
	if len(in.plan.Partitions) > 0 || len(in.plan.Crashes) > 0 {
		return nil
	}
	return &Injector{plan: in.plan, dropSeed: in.dropSeed, dupSeed: in.dupSeed, jitterSeed: in.jitterSeed}
}

// Join implements sim.ForkFilter: a fork's drop and duplication counts
// move into the injector and its metrics.
func (in *Injector) Join(fork sim.MessageFilter) {
	f := fork.(*Injector)
	in.dropped += f.dropped
	in.mDropped.Add(f.dropped)
	in.duplicated += f.duplicated
	in.mDuplicated.Add(f.duplicated)
	f.dropped, f.duplicated = 0, 0
}

func (in *Injector) countDrop() {
	in.dropped++
	in.mDropped.Inc()
}

// cut reports whether an active partition separates src and dst.
// Messages without both endpoints (sim.NoNode) cannot cross a cut.
func (in *Injector) cut(src, dst int, now sim.Time) bool {
	if src < 0 || dst < 0 {
		return false
	}
	for i, w := range in.plan.Partitions {
		if now >= w.From && now < w.Until && in.sides[i][src] != in.sides[i][dst] {
			return true
		}
	}
	return false
}

func rateFor(base float64, byKind map[string]float64, kind string) float64 {
	if v, ok := byKind[kind]; ok {
		return v
	}
	return base
}

// crash executes one scheduled failure. Out-of-range or already-dead
// targets are skipped — a plan may outlive the membership it was
// written against.
func (in *Injector) crash(c Crash) {
	nodes := in.ring.Nodes()
	if c.Node >= len(nodes) {
		return
	}
	n := nodes[c.Node]
	if !n.Alive {
		return
	}
	underlay, capacity, numVS := n.Underlay, n.Capacity, len(n.VServers())
	in.ring.RemoveNode(n)
	in.crashed++
	in.eng.Metrics().Counter("faults.crashes").Inc()
	if c.Restart == 0 {
		return
	}
	in.eng.ScheduleEv(c.Restart-c.At, sim.Func(func() {
		in.restart(underlay, capacity, numVS)
	}))
}

// restart rejoins a crashed node's replacement: same underlay position
// and capacity, the same number of virtual servers, identifiers drawn
// from the injector's restart stream (never the engine RNG, so restarts
// do not shift the simulation's own draws).
func (in *Injector) restart(underlay topology.NodeID, capacity float64, numVS int) {
	ids := make([]ident.ID, 0, numVS)
	seen := make(map[ident.ID]bool, numVS)
	for len(ids) < numVS {
		id := ident.ID(in.ids.Uint32())
		if seen[id] {
			continue
		}
		if vs := in.ring.Successor(id); vs != nil && vs.ID == id {
			continue // occupied on the ring
		}
		seen[id] = true
		ids = append(ids, id)
	}
	if _, err := in.ring.AddNodeWithIDs(underlay, capacity, ids); err != nil {
		// Identifiers were checked free just above on the same
		// single-goroutine engine; a failure here is a programming error.
		panic(fmt.Sprintf("faults: restart join failed: %v", err))
	}
	in.restarted++
	in.eng.Metrics().Counter("faults.restarts").Inc()
}

// DomainCut computes the partition side created by the failure of one
// underlay domain: with the domain's nodes gone, it floods the topology
// from every surviving transit node and returns the indexes of ring
// nodes whose underlay position is in the failed domain or unreachable
// from the surviving transit core. Cutting a transit domain this way
// severs its attached stub domains from the rest of the network — the
// paper's "lost a region of the underlay" scenario.
func DomainCut(g *topology.Graph, ring *chord.Ring, domain int) []int {
	reachable := make([]bool, g.NumNodes())
	var queue []topology.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		nid := topology.NodeID(id)
		node := g.Node(nid)
		if node.Kind == topology.Transit && node.Domain != domain {
			reachable[id] = true
			queue = append(queue, nid)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(cur) {
			if reachable[e.To] || g.Node(e.To).Domain == domain {
				continue
			}
			reachable[e.To] = true
			queue = append(queue, e.To)
		}
	}
	var side []int
	for _, n := range ring.Nodes() {
		if n.Underlay < 0 {
			continue
		}
		if g.Node(n.Underlay).Domain == domain || !reachable[n.Underlay] {
			side = append(side, n.Index)
		}
	}
	return side
}
