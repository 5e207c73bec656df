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
//
// Per-node and per-VS state is held in slices indexed by the ring's
// dense handles — chord.Node.Index and chord.VServer.Slot — sized when
// the placement is drawn. A node or virtual server that joins later
// falls past their ends (or, for a VS, into a slot whose entry names
// another VServer) and sits the round out, as one that joined since
// the last repair does.
type Placement struct {
	// Nodes lists the alive nodes in ring order.
	Nodes []*chord.Node
	// LBILeaf is aligned with Nodes: where each node's LBI report
	// lands. A nil handle means the chosen virtual server has no leaf
	// yet (a fresh joiner between repairs) and the node sits the round
	// out.
	LBILeaf []ktree.Handle
	// VSALeaf is indexed by chord.Node.Index: where each alive node's
	// advertisement lands if it turns out heavy or light. It is nil for
	// dead nodes and for nodes whose chosen VS has no leaf; nodes that
	// joined after the placement lie past its end.
	VSALeaf []ktree.Handle

	tree *ktree.Tree
	// leafOf is the per-VS leaf cache, indexed by chord.VServer.Slot.
	// An entry answers only for the VServer it names: a slot a leave
	// freed and a join reused mid-round starts undrawn.
	leafOf []vsLeaf
}

// vsLeaf is one leafOf entry: the leaf vs reports through this round
// (nil when vs has none).
type vsLeaf struct {
	vs   *chord.VServer
	leaf ktree.Handle
}

// PlaceRound draws the round's placement from rng: for every alive
// node, in ring order, a random virtual server and a random leaf of
// that server — first the LBI pass, then the VSA pass. reuse is an
// earlier round's placement whose slices the new one takes over (nil
// allocates); no reader of reuse may remain.
func PlaceRound(ring *chord.Ring, tree *ktree.Tree, rng *rand.Rand, reuse *Placement) *Placement {
	p := reuse
	if p == nil {
		p = &Placement{}
	}
	p.tree = tree
	p.Nodes = p.Nodes[:0]
	for _, n := range ring.Nodes() {
		if n.Alive {
			p.Nodes = append(p.Nodes, n)
		}
	}
	p.LBILeaf = zeroed(p.LBILeaf, len(p.Nodes))
	p.VSALeaf = zeroed(p.VSALeaf, len(ring.Nodes()))
	p.leafOf = zeroed(p.leafOf, ring.NumSlots())
	draw := func(n *chord.Node) ktree.Handle {
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
		p.VSALeaf[n.Index] = draw(n)
	}
	return p
}

// zeroed returns s resized to n zero elements, reusing its array when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// LeafOf returns the single leaf vs reports through this round,
// drawing it from rng the first time vs is asked for: "the virtual
// server reports the VSA information to only one of its KT leaf nodes"
// (§4.3). A driver's lazy draws (proximity-aware publication, whose
// target VS is known only once the publication lands) go through the
// same cache as the placement's, so a VS never reports through two
// leaves. nil means vs has no leaf yet — it joined since the last
// repair, or since the placement — and what would enter the tree there
// sits the round out.
func (p *Placement) LeafOf(vs *chord.VServer, rng *rand.Rand) ktree.Handle {
	s := vs.Slot()
	if s >= len(p.leafOf) {
		return ktree.Handle{} // joined since the placement, so unplanted
	}
	e := &p.leafOf[s]
	if e.vs != vs {
		*e = vsLeaf{vs: vs}
		if leaves := p.tree.LeavesOf(vs); len(leaves) > 0 {
			e.leaf = leaves[rng.Intn(len(leaves))]
		}
	}
	return e.leaf
}
