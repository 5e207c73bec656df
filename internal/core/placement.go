package core

import (
	"math/rand"

	"p2plb/internal/chord"
	"p2plb/internal/ktree"
)

// Placement is the randomized placement of one balancing round: which
// KT leaf receives each alive node's LBI report (§3.2), and which leaf
// receives its VSA advertisement should the node classify non-neutral
// (§3.4). Both round drivers — Balancer.RunRound and the message-level
// protocol.Runner — draw it with PlaceRound from the engine's RNG
// before anything else happens in the round, so for a given seed and
// ring they deposit identical per-leaf inboxes. Which entries pool at
// which interior rendezvous point is purely a function of placement,
// which is why the two drivers pair identically at any threshold.
//
// The VSA leaf is drawn for every alive node, not just the eventually
// non-neutral ones: at placement time classification hasn't happened
// yet (it needs the global tuple), and skipping neutral nodes would
// make the draw sequence depend on execution order.
type Placement struct {
	// Nodes lists the alive nodes in ring order.
	Nodes []*chord.Node
	// LBILeaf is aligned with Nodes: where each node's LBI report
	// lands. nil means the chosen virtual server has no leaf yet (a
	// fresh joiner between repairs) and the node sits the round out.
	LBILeaf []*ktree.Node
	// VSALeaf is where each alive node's advertisement lands if it
	// turns out heavy or light. Nodes whose chosen VS has no leaf are
	// absent.
	VSALeaf map[*chord.Node]*ktree.Node

	tree   *ktree.Tree
	leafOf map[*chord.VServer]*ktree.Node
}

// PlaceRound draws the round's placement from rng: for every alive
// node, in ring order, a random virtual server and a random leaf of
// that server — first the LBI pass, then the VSA pass. leafOf is the
// per-VS leaf cache to fill (it may carry capacity from a recycled
// round but must be empty; nil allocates one).
func PlaceRound(ring *chord.Ring, tree *ktree.Tree, rng *rand.Rand, leafOf map[*chord.VServer]*ktree.Node) *Placement {
	if leafOf == nil {
		leafOf = make(map[*chord.VServer]*ktree.Node)
	}
	p := &Placement{tree: tree, leafOf: leafOf}
	for _, n := range ring.Nodes() {
		if n.Alive {
			p.Nodes = append(p.Nodes, n)
		}
	}
	p.LBILeaf = make([]*ktree.Node, len(p.Nodes))
	p.VSALeaf = make(map[*chord.Node]*ktree.Node, len(p.Nodes))
	draw := func(n *chord.Node) *ktree.Node {
		vs := n.RandomVS(rng)
		if vs == nil {
			// A node hosting no virtual servers reports through an
			// arbitrary ring participant.
			all := ring.VServers()
			vs = all[rng.Intn(len(all))]
		}
		return p.LeafOf(vs, rng)
	}
	for i, n := range p.Nodes {
		p.LBILeaf[i] = draw(n)
	}
	for _, n := range p.Nodes {
		if leaf := draw(n); leaf != nil {
			p.VSALeaf[n] = leaf
		}
	}
	return p
}

// LeafOf returns the single leaf vs reports through this round,
// drawing it from rng the first time vs is asked for: "the virtual
// server reports the VSA information to only one of its KT leaf nodes"
// (§4.3). A driver's lazy draws (proximity-aware publication, whose
// target VS is known only once the publication lands) go through the
// same cache as the placement's, so a VS never reports through two
// leaves. nil means vs has no leaf yet — it joined since the last
// repair — and what would enter the tree there sits the round out.
func (p *Placement) LeafOf(vs *chord.VServer, rng *rand.Rand) *ktree.Node {
	leaf, ok := p.leafOf[vs]
	if !ok {
		if leaves := p.tree.LeavesOf(vs); len(leaves) > 0 {
			leaf = leaves[rng.Intn(len(leaves))]
		}
		p.leafOf[vs] = leaf
	}
	return leaf
}

// DepositReports fills inbox with each placed node's LBI report —
// LBILeaf[i] receives NodeLBI(Nodes[i]) in ring order, the exact
// sequence both drivers aggregate.
func (p *Placement) DepositReports(inbox map[*ktree.Node][]LBI) {
	for i, n := range p.Nodes {
		if leaf := p.LBILeaf[i]; leaf != nil {
			inbox[leaf] = append(inbox[leaf], NodeLBI(n))
		}
	}
}
