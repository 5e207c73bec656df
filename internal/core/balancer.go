package core

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/stats"
)

// RunRound executes one complete load-balancing round: LBI aggregation
// and dissemination, node classification, virtual server assignment, and
// virtual server transferring. It mutates the ring (transfers re-home
// virtual servers) and returns the round's results and cost accounting.
//
// VSA and VST overlap (§3.5): each transfer starts the moment its
// rendezvous point emits the pairing, not after the whole sweep ends.
func (b *Balancer) RunRound() (*Result, error) {
	if b.ring.NumVServers() == 0 {
		return nil, fmt.Errorf("core: ring has no virtual servers")
	}
	if b.tree.Root() == nil {
		if err := b.tree.Build(); err != nil {
			return nil, err
		}
	}
	if b.cfg.Loads != nil {
		b.cfg.Loads.Refresh(b.ring)
	}

	res := &Result{
		Mode:        b.cfg.Mode,
		MovedByHops: &stats.WeightedHistogram{},
		TreeHeight:  b.tree.Height(),
	}

	// Phase 1: LBI aggregation and dissemination.
	lbi := b.aggregateLBI()
	if !lbi.global.Valid() {
		return nil, fmt.Errorf("core: no node reported LBI")
	}
	res.Global = lbi.global
	res.TimeLBIAggregate = lbi.aggregateTime
	res.TimeLBIDisseminate = lbi.disperseTime

	// Phase 2: classification (and shed-subset selection on heavy nodes).
	states := b.classify(lbi.global)
	res.HeavyBefore, res.LightBefore, res.NeutralBefore = census(states)

	// Phase 3: VSA sweep.
	vsa := b.runVSA(states, lbi.global, lbi.disperseTime)
	res.TimePublish = vsa.publishTime
	res.TimeVSAComplete = vsa.completeTime
	res.Assignments = vsa.assignments
	res.UnassignedOffers = len(vsa.unassigned)
	for _, o := range vsa.unassigned {
		res.UnassignedLoad += o.load
	}

	// Phase 4: VST — apply transfers, charge their cost, record the
	// moved-load-by-distance distribution.
	eng := b.ring.Engine()
	for i := range res.Assignments {
		a := &res.Assignments[i]
		a.Hops = b.transferCost(a.From, a.To)
		cost := b.ring.Latency(a.From, a.To) + 1
		eng.CountMessage(MsgVSTTransfer, cost)
		b.ring.Transfer(a.VS, a.To)
		res.MovedLoad += a.Load
		res.MovedByHops.Add(a.Hops, a.Load)
		if done := a.AssignedAt + cost; done > res.TimeVSTComplete {
			res.TimeVSTComplete = done
		}
	}
	if res.TimeVSTComplete < vsa.completeTime {
		res.TimeVSTComplete = vsa.completeTime
	}

	// Post-round census against the same global tuple.
	after := b.classify(lbi.global)
	res.HeavyAfter, res.LightAfter, res.NeutralAfter = census(after)

	// Transferring virtual servers migrates the KT nodes planted in them
	// (lazy migration, §3.5): reconcile the tree once the round is over.
	if _, err := b.tree.Repair(); err != nil {
		return nil, err
	}
	b.recordRound(res)
	return res, nil
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
