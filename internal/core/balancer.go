package core

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/par"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
)

// RunRound executes one complete load-balancing round: LBI aggregation
// and dissemination, node classification, virtual server assignment, and
// virtual server transferring. It mutates the ring (transfers re-home
// virtual servers) and returns the round's results and cost accounting.
//
// The round runs the message-level driver's rules (protocol.Runner):
// it starts on a repaired tree, draws its placement with PlaceRound
// before anything else, and pairs by PairList.Rendezvous. On a lossless
// ring the two produce the same pairs and the same global tuple.
//
// VSA and VST overlap (§3.5): each transfer starts the moment its
// rendezvous point emits the pairing, not after the whole sweep ends.
func (b *Balancer) RunRound() (*Result, error) {
	if b.ring.NumVServers() == 0 {
		return nil, fmt.Errorf("core: ring has no virtual servers")
	}
	res := &Result{
		Mode:        b.cfg.Mode,
		MovedByHops: &stats.WeightedHistogram{},
	}
	place, lbi, states, err := b.classifyPhase(res)
	if err != nil {
		return nil, err
	}

	// Phase 3: VSA sweep.
	vsa := b.runVSA(place, states, lbi.global, lbi.disperseTime)
	res.TimePublish = vsa.publishTime
	res.TimeVSAComplete = vsa.completeTime
	res.Assignments = vsa.assignments
	res.UnassignedOffers = vsa.left.Offers()
	res.UnassignedLoad = vsa.left.OfferLoad()

	// Phase 4: VST — apply transfers, charge their cost, record the
	// moved-load-by-distance distribution.
	var transferCost sim.Time
	for i := range res.Assignments {
		a := &res.Assignments[i]
		a.Hops = b.transferCost(a.From, a.To)
		cost := b.ring.Latency(a.From, a.To) + 1
		transferCost += cost
		b.ring.Transfer(a.VS, a.To)
		res.MovedLoad += a.Load
		res.MovedByHops.Add(a.Hops, a.Load)
		if done := a.AssignedAt + cost; done > res.TimeVSTComplete {
			res.TimeVSTComplete = done
		}
	}
	b.ring.Engine().CountMessageN(MsgVSTTransfer, int64(len(res.Assignments)), transferCost)
	if res.TimeVSTComplete < vsa.completeTime {
		res.TimeVSTComplete = vsa.completeTime
	}

	// Post-round census against the same global tuple.
	res.HeavyAfter, res.LightAfter, res.NeutralAfter = Census(b.ring.Nodes(), lbi.global, b.cfg.Epsilon)

	// Transferring virtual servers migrates the KT nodes planted in them
	// (lazy migration, §3.5): reconcile the tree once the round is over.
	if _, err := b.tree.Repair(); err != nil {
		return nil, err
	}
	b.recordRound(res)
	return res, nil
}

// classifyPhase runs the first two phases of a round for RunRound and
// RunRandomMatching, in protocol.Runner's order: repair the tree
// (Repair builds an unbuilt tree, plants what joined since the last
// pass, and on a quiescent ring is free), refresh a configured
// LoadSource, draw the round's placement, aggregate and disseminate
// LBI, and classify every placed node. It fills res's tree height,
// global tuple, LBI times and before-census.
func (b *Balancer) classifyPhase(res *Result) (*Placement, lbiOutcome, []*NodeState, error) {
	if _, err := b.tree.Repair(); err != nil {
		return nil, lbiOutcome{}, nil, err
	}
	if b.cfg.Loads != nil {
		b.cfg.Loads.Refresh(b.ring)
	}
	res.TreeHeight = b.tree.Height()
	place := PlaceRound(b.ring, b.tree, b.ring.Engine().Rand(), nil)
	lbi := b.aggregateLBI(place)
	if !lbi.global.Valid() {
		return nil, lbi, nil, fmt.Errorf("core: no node reported LBI")
	}
	res.Global = lbi.global
	res.TimeLBIAggregate = lbi.aggregateTime
	res.TimeLBIDisseminate = lbi.disperseTime

	// Classification, and shed-subset selection on heavy nodes. Each
	// node's is its own, so chunks of nodes classify in parallel into
	// one block of states; the subset-cost histogram is fed afterwards,
	// in node order.
	block := make([]NodeState, len(place.Nodes))
	states := make([]*NodeState, len(place.Nodes))
	ops := make([]int64, len(place.Nodes))
	par.ForChunked(len(place.Nodes), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			states[i] = &block[i]
			ops[i] = classifyNode(states[i], place.Nodes[i], lbi.global, b.cfg.Epsilon, b.cfg.Subset)
		}
	})
	for i, st := range states {
		if st.Class == Heavy {
			b.observeSubsetCost(ops[i])
		}
	}
	res.HeavyBefore, res.LightBefore, res.NeutralBefore = Census(place.Nodes, lbi.global, b.cfg.Epsilon)
	return place, lbi, states, nil
}

// recordRound publishes one round's outcome to the engine's metrics
// registry (no-op without one): per-phase durations in virtual latency
// units, pairing outcomes, and moved load.
func (b *Balancer) recordRound(res *Result) {
	reg := b.ring.Engine().Metrics()
	reg.Counter("core.rounds").Inc()
	reg.Histogram("core.phase.lbi_aggregate").Observe(int64(res.TimeLBIAggregate))
	reg.Histogram("core.phase.lbi_disseminate").Observe(int64(res.TimeLBIDisseminate - res.TimeLBIAggregate))
	if res.TimePublish > 0 {
		reg.Histogram("core.phase.publish").Observe(int64(res.TimePublish - res.TimeLBIDisseminate))
	}
	reg.Histogram("core.phase.vsa").Observe(int64(res.TimeVSAComplete))
	reg.Histogram("core.phase.vst").Observe(int64(res.TimeVSTComplete))
	reg.Counter("core.pairs.assigned").Add(int64(len(res.Assignments)))
	reg.Counter("core.pairs.unassigned").Add(int64(res.UnassignedOffers))
	reg.Float("core.moved_load").Add(res.MovedLoad)
	reg.Float("core.unassigned_load").Add(res.UnassignedLoad)
	hops := reg.Histogram("core.transfer.hops")
	for i := range res.Assignments {
		hops.Observe(int64(res.Assignments[i].Hops))
	}
}

// UnitLoads returns load/capacity for every alive node, in ring node
// order — the y-axis of the paper's Figure 4 scatterplots. A node that
// shed all its virtual servers contributes 0.
func UnitLoads(ring *chord.Ring) []float64 {
	var out []float64
	for _, n := range ring.Nodes() {
		if !n.Alive {
			continue
		}
		out = append(out, n.TotalLoad()/n.Capacity)
	}
	return out
}

// UnitLoadGini is the repo's one imbalance metric: the Gini coefficient
// of UnitLoads(ring).
func UnitLoadGini(ring *chord.Ring) float64 { return stats.Gini(UnitLoads(ring)) }

// UnitLoads is UnitLoads over the balancer's ring.
func (b *Balancer) UnitLoads() []float64 { return UnitLoads(b.ring) }

// LoadByCapacityClass aggregates per-node loads grouped by node capacity
// — the data behind Figures 5 and 6.
func (b *Balancer) LoadByCapacityClass() *stats.GroupedSum {
	g := stats.NewGroupedSum()
	for _, n := range b.ring.Nodes() {
		if !n.Alive {
			continue
		}
		g.Add(n.Capacity, n.TotalLoad())
	}
	return g
}
