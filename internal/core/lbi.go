package core

import (
	"math"
	"p2plb/internal/chord"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
)

// NodeLBI returns the report a DHT node submits during LBI aggregation:
// <L_i, C_i, L_{i,min}> (§3.2). A node that currently hosts no virtual
// servers (it shed them all in an earlier round) still reports its
// capacity; its "minimum VS load" is +Inf so it never defines the global
// Lmin.
func NodeLBI(n *chord.Node) LBI {
	min, ok := n.MinVSLoad()
	if !ok {
		return LBI{L: 0, C: n.Capacity, Lmin: math.Inf(1), ok: true}
	}
	return LBI{L: n.TotalLoad(), C: n.Capacity, Lmin: min, ok: true}
}

// lbiOutcome carries the result of the aggregation phase.
type lbiOutcome struct {
	global        LBI
	aggregateTime sim.Time // converge-cast completion at the root
	disperseTime  sim.Time // dissemination completion at the last leaf
}

// aggregateLBI runs the LBI aggregation and dissemination over the tree.
//
// inbox holds the node reports the round's placement deposited at each
// KT leaf (both the report and the deposit are local, cost-free
// interactions). The tree then performs a bottom-up converge-cast —
// each KT node merges its own reports, then its children's tuples in
// child order, and forwards one report to its parent — followed by a
// top-down dissemination of the global tuple. One message per tree edge
// in each direction. Dissemination starts when aggregation completes
// and ends at the leaf whose root path is slowest, so the one bottom-up
// pass computes both: the converge-cast's completion and the deepest
// root-to-leaf latency. Both kinds are counted in bulk once the pass is
// over.
func (b *Balancer) aggregateLBI(inbox map[*ktree.Node][]LBI) lbiOutcome {
	var edges int64
	var edgeCost sim.Time
	var up func(n *ktree.Node) (agg LBI, ready, deepest sim.Time)
	up = func(n *ktree.Node) (agg LBI, ready, deepest sim.Time) {
		if n.IsLeaf() { // placement deposits only at leaves
			for _, r := range inbox[n] {
				agg = agg.Merge(r)
			}
		}
		for _, c := range n.Children {
			childAgg, childReady, childDeepest := up(c)
			edge := b.tree.EdgeLatency(c)
			edges++
			edgeCost += edge
			agg = agg.Merge(childAgg)
			if t := childReady + edge; t > ready {
				ready = t
			}
			if d := childDeepest + edge; d > deepest {
				deepest = d
			}
		}
		return agg, ready, deepest
	}
	global, aggTime, deepest := up(b.tree.Root())
	eng := b.ring.Engine()
	eng.CountMessageN(MsgLBIReport, edges, edgeCost)
	eng.CountMessageN(MsgLBIDisperse, edges, edgeCost)
	return lbiOutcome{global: global, aggregateTime: aggTime, disperseTime: aggTime + deepest}
}

// ClassifyNode classifies one node against the global tuple (§3.3):
// T_i = (1+ε)·C_i·(L/C); heavy if L_i > T_i; light if T_i − L_i ≥ Lmin;
// neutral otherwise. A heavy node also selects the subset of virtual
// servers it sheds (§3.4) with the given strategy.
func ClassifyNode(n *chord.Node, global LBI, epsilon float64, strategy SubsetStrategy) *NodeState {
	st, _ := classifyNode(n, global, epsilon, strategy)
	return st
}

// classifyNode is ClassifyNode that also returns the shed-subset
// search's work (0 unless the node is heavy), for the Balancer's
// core.subset.cost histogram.
func classifyNode(n *chord.Node, global LBI, epsilon float64, strategy SubsetStrategy) (*NodeState, int64) {
	st := &NodeState{Node: n, Load: n.TotalLoad()}
	var ops int64
	st.Class, st.Target = classOf(st.Load, n.Capacity, global, epsilon)
	switch st.Class {
	case Heavy:
		st.Offers, ops = chooseShedSubset(n.VServers(), st.Load-st.Target, strategy)
	case Light:
		st.Deficit = st.Target - st.Load
	}
	return st, ops
}

// classOf is the §3.3 rule on its own: the class of a node carrying
// load with the given capacity, and its target load T_i. With no
// capacity in the system every node is neutral.
func classOf(load, capacity float64, global LBI, epsilon float64) (Class, float64) {
	if global.C <= 0 {
		return Neutral, 0
	}
	target := (1 + epsilon) * capacity * (global.L / global.C)
	switch {
	case load > target:
		return Heavy, target
	case target-load >= global.Lmin:
		return Light, target
	default:
		return Neutral, target
	}
}

// Census classifies every alive node in nodes against the global tuple
// and tallies the classes. Both round drivers report it after their
// transfers, and the Balancer before them too.
func Census(nodes []*chord.Node, global LBI, epsilon float64) (heavy, light, neutral int) {
	for _, n := range nodes {
		if !n.Alive {
			continue
		}
		switch c, _ := classOf(n.TotalLoad(), n.Capacity, global, epsilon); c {
		case Heavy:
			heavy++
		case Light:
			light++
		default:
			neutral++
		}
	}
	return heavy, light, neutral
}
