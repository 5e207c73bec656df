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

// lbiInbox returns the placement's node reports as a sorted inbox:
// LBILeaf[i] receives the report of Nodes[i], deposited in ring order.
// The report itself, NodeLBI(Nodes[i]), is read when the fold reaches
// the leaf.
func lbiInbox(place *Placement, tree *ktree.Tree, root ktree.Handle) []deposit {
	in := make([]deposit, 0, len(place.Nodes))
	for i, leaf := range place.LBILeaf {
		if !leaf.IsNil() {
			in = append(in, deposit{off: leafOffset(tree, root, leaf), i: int32(i)})
		}
	}
	sortDeposits(in)
	return in
}

// lbiSub is one subtree's converge-cast result: its aggregate tuple,
// when the aggregate is ready at the subtree's root, and the slowest
// latency from that root down to a leaf.
type lbiSub struct {
	agg            LBI
	ready, deepest sim.Time
}

// lbiWalk folds one part of the LBI converge-cast: the tree edges it
// crossed, and the deposits it has yet to reach.
type lbiWalk struct {
	b        *Balancer
	root     ktree.Handle
	nodes    []*chord.Node // the placed nodes the deposits index
	in       []deposit
	edges    int64
	edgeCost sim.Time
}

// up folds n's subtree: each KT node merges its own reports, then its
// children's tuples in child order. kids, when non-nil, holds the
// children's results already folded (the root step after the fork);
// otherwise up recurses into them.
func (w *lbiWalk) up(n ktree.Handle, kids []lbiSub) lbiSub {
	var s lbiSub
	if w.b.tree.IsLeaf(n) { // placement deposits only at leaves
		for _, d := range leafRun(&w.in, w.b.tree, w.root, n) {
			s.agg = s.agg.Merge(NodeLBI(w.nodes[d.i]))
		}
	}
	i := 0
	for c := w.b.tree.FirstChild(n); !c.IsNil(); c, i = w.b.tree.NextSibling(c), i+1 {
		var k lbiSub
		if kids != nil {
			k = kids[i]
		} else {
			k = w.up(c, nil)
		}
		edge := w.b.tree.EdgeLatency(c)
		w.edges++
		w.edgeCost += edge
		s.agg = s.agg.Merge(k.agg)
		if t := k.ready + edge; t > s.ready {
			s.ready = t
		}
		if d := k.deepest + edge; d > s.deepest {
			s.deepest = d
		}
	}
	return s
}

// aggregateLBI runs the LBI aggregation and dissemination over the tree.
//
// The round's placement deposits each node's report at a KT leaf (both
// the report and the deposit are local, cost-free interactions). The
// tree then performs a bottom-up converge-cast — each KT node merges
// its own reports, then its children's tuples in child order, and
// forwards one report to its parent — followed by a top-down
// dissemination of the global tuple. One message per tree edge in each
// direction. Dissemination starts when aggregation completes and ends
// at the leaf whose root path is slowest, so the one bottom-up pass
// computes both: the converge-cast's completion and the deepest
// root-to-leaf latency. The pass forks at the root (see forkRoot), and
// both kinds are counted in bulk once it is over.
func (b *Balancer) aggregateLBI(place *Placement) lbiOutcome {
	tree := b.tree
	root := tree.Root()
	kids := make([]lbiSub, tree.NumChildren(root))
	walks := make([]lbiWalk, len(kids))
	top := lbiWalk{b: b, root: root, nodes: place.Nodes}
	top.in = forkRoot(tree, root, lbiInbox(place, tree, root), func(i int, c ktree.Handle, run []deposit) {
		w := &walks[i]
		*w = lbiWalk{b: b, root: root, nodes: place.Nodes, in: run}
		kids[i] = w.up(c, nil)
		mustBeConsumed(w.in)
	})
	for i := range walks {
		top.edges += walks[i].edges
		top.edgeCost += walks[i].edgeCost
	}
	global := top.up(root, kids)
	mustBeConsumed(top.in)
	eng := b.ring.Engine()
	eng.CountMessageN(MsgLBIReport, top.edges, top.edgeCost)
	eng.CountMessageN(MsgLBIDisperse, top.edges, top.edgeCost)
	return lbiOutcome{global: global.agg, aggregateTime: global.ready, disperseTime: global.ready + global.deepest}
}

// ClassifyNode classifies one node against the global tuple (§3.3):
// T_i = (1+ε)·C_i·(L/C); heavy if L_i > T_i; light if T_i − L_i ≥ Lmin;
// neutral otherwise. A heavy node also selects the subset of virtual
// servers it sheds (§3.4) with the given strategy.
func ClassifyNode(n *chord.Node, global LBI, epsilon float64, strategy SubsetStrategy) *NodeState {
	st := new(NodeState)
	classifyNode(st, n, global, epsilon, strategy)
	return st
}

// classifyNode is ClassifyNode into a caller's NodeState; it returns
// the shed-subset search's work (0 unless the node is heavy), for the
// Balancer's core.subset.cost histogram.
func classifyNode(st *NodeState, n *chord.Node, global LBI, epsilon float64, strategy SubsetStrategy) int64 {
	*st = NodeState{Node: n, Load: n.TotalLoad()}
	var ops int64
	st.Class, st.Target = classOf(st.Load, n.Capacity, global, epsilon)
	switch st.Class {
	case Heavy:
		st.Offers, ops = chooseShedSubset(n.VServers(), st.Load-st.Target, strategy)
	case Light:
		st.Deficit = st.Target - st.Load
	}
	return ops
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
