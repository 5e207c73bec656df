package core

import (
	"cmp"
	"slices"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
)

// lightEntry is a light node's advertisement <ΔL_j, ip_addr(j)>.
// group is the Hilbert-number key the entry was published under in
// proximity-aware mode (0 in ignorant mode): entries with equal groups
// come from the same landmark-space grid cell, i.e. physically close
// nodes.
type lightEntry struct {
	deficit float64
	node    *chord.Node
	group   uint64
}

// offerEntry is one shed virtual server <L_{i,k}, v_{i,k}, ip_addr(i)>.
type offerEntry struct {
	load  float64
	vs    *chord.VServer
	node  *chord.Node
	group uint64
}

// vsaLists are the two sorted lists a rendezvous KT node maintains:
// lights ascending by deficit, offers ascending by load (§3.4).
type vsaLists struct {
	lights []lightEntry
	offers []offerEntry
}

func (v *vsaLists) size() int { return len(v.lights) + len(v.offers) }

// sort establishes the canonical orders with deterministic tiebreaks.
func (v *vsaLists) sort() {
	slices.SortFunc(v.lights, cmpLight)
	slices.SortFunc(v.offers, cmpOffer)
}

// cmpLight orders lights ascending by deficit, then by node index.
func cmpLight(a, b lightEntry) int {
	if c := cmp.Compare(a.deficit, b.deficit); c != 0 {
		return c
	}
	return cmp.Compare(a.node.Index, b.node.Index)
}

// cmpOffer orders offers ascending by load, then by VS identifier — a
// deterministic tiebreak that wants a total order, not ring distance.
func cmpOffer(a, b offerEntry) int {
	if c := cmp.Compare(a.load, b.load); c != 0 {
		return c
	}
	return ident.Compare(a.vs.ID, b.vs.ID)
}

// merge absorbs o's entries (both lists stay unsorted until sort()).
func (v *vsaLists) merge(o vsaLists) {
	v.lights = append(v.lights, o.lights...)
	v.offers = append(v.offers, o.offers...)
}

// insertLight re-inserts a residual deficit, keeping lights sorted.
func (v *vsaLists) insertLight(e lightEntry) {
	pos, _ := slices.BinarySearchFunc(v.lights, e, cmpLight)
	v.lights = slices.Insert(v.lights, pos, e)
}

// oneCell reports whether every entry was published under the same
// cell — always so in proximity-ignorant mode, where every group is 0.
func (v *vsaLists) oneCell() bool {
	var g uint64
	if len(v.lights) > 0 {
		g = v.lights[0].group
	} else if len(v.offers) > 0 {
		g = v.offers[0].group
	}
	for _, l := range v.lights {
		if l.group != g {
			return false
		}
	}
	for _, o := range v.offers {
		if o.group != g {
			return false
		}
	}
	return true
}

// pairLocal pairs entries cell by cell: offers are matched only against
// light nodes from the same landmark-space grid cell (equal group).
// This implements the proximity-aware goal of §4.2 — "guide heavy nodes
// to assign as many virtual servers as possible to those physically
// close light nodes (if any) ... until no further appropriate virtual
// server assignment can be achieved" — before any cross-cell pooling.
// Cells are visited in ascending group order, each pairing within its
// own run of the cell-sorted lists; the leftovers of every cell are
// compacted in place and left in canonical order for pairAll. Pairs
// are appended to out. Pair skips this step when all entries share one
// cell, where it is pairAll itself.
//
//lbvet:hotpath
func (v *vsaLists) pairLocal(lmin float64, out []Pair) []Pair {
	slices.SortFunc(v.lights, cmpLightCell)
	slices.SortFunc(v.offers, cmpOfferCell)
	// nl and no count the leftovers compacted so far; li and oi are the
	// starts of the next unvisited runs. A cell's run only shrinks while
	// it pairs, so compaction never overtakes an unvisited run.
	nl, no, li := 0, 0, 0
	for oi := 0; oi < len(v.offers); {
		g := v.offers[oi].group
		oj := oi
		for oj < len(v.offers) && v.offers[oj].group == g {
			oj++
		}
		// Cells with lights but no offers keep their lights untouched.
		for li < len(v.lights) && v.lights[li].group < g {
			v.lights[nl] = v.lights[li]
			nl, li = nl+1, li+1
		}
		lj := li
		for lj < len(v.lights) && v.lights[lj].group == g {
			lj++
		}
		cell := vsaLists{lights: v.lights[li:lj:lj], offers: v.offers[oi:oj:oj]}
		out = cell.pairAll(lmin, out)
		nl += copy(v.lights[nl:], cell.lights)
		no += copy(v.offers[no:], cell.offers)
		li, oi = lj, oj
	}
	nl += copy(v.lights[nl:], v.lights[li:])
	v.lights, v.offers = v.lights[:nl], v.offers[:no]
	v.sort()
	return out
}

// cmpLightCell orders lights by cell, then canonically.
func cmpLightCell(a, b lightEntry) int {
	return cmp.Or(cmp.Compare(a.group, b.group), cmpLight(a, b))
}

// cmpOfferCell orders offers by cell, then canonically.
func cmpOfferCell(a, b offerEntry) int {
	return cmp.Or(cmp.Compare(a.group, b.group), cmpOffer(a, b))
}

// cmpFit places an offer's load among deficit-sorted lights for
// slices.BinarySearchFunc: a light that cannot take the load sorts
// before it, so the search finds the first one that can.
func cmpFit(l lightEntry, load float64) int {
	if l.deficit >= load {
		return 0
	}
	return -1
}

// pairAll runs the paper's pairing loop on sorted lists: repeatedly take
// the heaviest offered VS, match it to the light node with the smallest
// deficit that still fits (ΔL_j >= L_{i,k}), and re-insert the residual
// deficit if it is at least lmin. Pairs are appended to out. Offers that
// fit no light node are left in v.offers (to be propagated upward).
// Lists must be sorted; they remain sorted on return.
//
//lbvet:hotpath
func (v *vsaLists) pairAll(lmin float64, out []Pair) []Pair {
	// Offers are taken heaviest first; one that fits nobody is written
	// back at w, which walks down behind the read position, so
	// v.offers[w:] ends up holding the unpaired offers in ascending
	// order. They move to the front, keeping the list's capacity for
	// the parent's merge.
	w := len(v.offers)
	for i := len(v.offers) - 1; i >= 0; i-- {
		o := v.offers[i]
		// Feasible light nodes: deficit >= o.load (a suffix of the
		// deficit-sorted list).
		pos, _ := slices.BinarySearchFunc(v.lights, o.load, cmpFit)
		if pos == len(v.lights) {
			w--
			v.offers[w] = o
			continue
		}
		// Among feasible lights, prefer the one whose publication group
		// (Hilbert number) is nearest the offer's — physically closest
		// first (§4.2) — breaking ties by smallest deficit (§3.4). With
		// ungrouped entries every group distance is 0, so this is
		// exactly the paper's best-fit rule; nothing is nearer than 0,
		// so the scan stops there.
		best := groupDist(v.lights[pos].group, o.group)
		for j := pos + 1; best > 0 && j < len(v.lights); j++ {
			if d := groupDist(v.lights[j].group, o.group); d < best {
				pos, best = j, d
			}
		}
		l := v.lights[pos]
		v.lights = v.lights[:pos+copy(v.lights[pos:], v.lights[pos+1:])]
		//lbvet:ignore hotalloc out has room for every pair: Pair sizes it by the offers, and a sweep's walk reuses one scratch that stops growing at its largest rendezvous
		out = append(out, Pair{VS: o.vs, From: o.node, To: l.node, Load: o.load})
		if residual := l.deficit - o.load; residual >= lmin && residual > 0 {
			v.insertLight(lightEntry{deficit: residual, node: l.node, group: l.group})
		}
	}
	v.offers = v.offers[:copy(v.offers, v.offers[w:])]
	return out
}

// groupDist is the distance between two publication groups (Hilbert
// numbers scaled into the key space): smaller means physically closer.
func groupDist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// vsaOutcome carries the results of the VSA phase.
type vsaOutcome struct {
	assignments  []Assignment
	left         PairList // the root's unpaired entries
	publishTime  sim.Time
	completeTime sim.Time
}

// vsaSub is one root child's sweep result: its subtree's unpaired
// entries and when they are ready at the child.
type vsaSub struct {
	left  PairList
	ready sim.Time
}

// vsaWalk folds one part of the VSA sweep over one entry stack: the
// unpaired entries of the subtrees it has folded, each on top of the
// ones folded before it (see up). It keeps the pairings it emitted in
// post-order, its message tallies, and the deposits it has yet to
// reach.
type vsaWalk struct {
	b          *Balancer
	root       ktree.Handle
	states     []*NodeState // the classified nodes the deposits index
	in         []deposit
	start      sim.Time // when every advertisement is at its leaf
	lmin       float64
	stack      PairList
	pairs      []Pair // one node's pairings, reused from node to node
	assigned   []Assignment
	reports    int64
	reportCost sim.Time
	assigns    int64
	assignCost sim.Time
}

// up folds n's subtree and returns when its unpaired entries are ready
// at n, leaving them on top of the stack. n's list is its own deposits
// (a leaf) or its children's unpaired entries in child order (an
// internal node), and that is what the stack holds above its height on
// entry once n's deposits are pushed and its children folded: every
// child leaves its entries on top of its elder siblings'. So the list
// is the view stack[mark:], assembled without a copy; it pairs there
// by the rendezvous rule, which only removes entries or puts a residual
// in the place of a light it consumed, and the stack is cut back to
// what stayed unpaired. A push may grow the stack, but pairing never
// does, so the view pairs on the stack's own array. kids, when non-nil, holds the children's
// results already folded on other walks (the root step after the
// fork): their entries are copied onto this walk's stack, the one copy
// the sweep makes.
//
//lbvet:hotpath
func (w *vsaWalk) up(n ktree.Handle, kids []vsaSub) sim.Time {
	tree := w.b.tree
	ml, mo := w.stack.Lights(), w.stack.Offers()
	ready := w.start
	if tree.IsLeaf(n) { // placement deposits only at leaves
		for _, d := range leafRun(&w.in, tree, w.root, n) {
			w.stack.Deposit(w.states[d.i], d.group)
		}
	}
	i := 0
	for c := tree.FirstChild(n); !c.IsNil(); c, i = tree.NextSibling(c), i+1 {
		var kr sim.Time
		if kids != nil {
			w.stack.Merge(&kids[i].left)
			kr = kids[i].ready
		} else {
			kr = w.up(c, nil)
		}
		// Every child sends one (possibly empty) epoch report; empty
		// reports still synchronize the converge-cast.
		edge := tree.EdgeLatency(c)
		w.reports++
		w.reportCost += edge
		if t := kr + edge; t > ready {
			ready = t
		}
	}
	s := &w.stack.lists
	node := PairList{lists: vsaLists{lights: s.lights[ml:], offers: s.offers[mo:]}}
	w.pairs = node.rendezvous(n == w.root, w.b.cfg.RendezvousThreshold, w.lmin, w.pairs[:0])
	s.lights = settle(s.lights, node.lists.lights, ml)
	s.offers = settle(s.offers, node.lists.offers, mo)
	host := tree.Host(n).Owner
	for _, p := range w.pairs {
		// Rendezvous notifies both endpoints directly.
		w.assigns += 2
		w.assignCost += w.b.ring.Latency(host, p.From) + 1 + w.b.ring.Latency(host, p.To) + 1
		//lbvet:ignore hotalloc assigned has room: every pairing consumes one of the offers deposited in the walk's run, and runVSA sizes the walk's window by them
		w.assigned = append(w.assigned, Assignment{
			VS:         p.VS,
			From:       p.From,
			To:         p.To,
			Load:       p.Load,
			AssignedAt: ready,
			Depth:      tree.Depth(n),
		})
	}
	return ready
}

// settle cuts a walk's stack back to mark plus the unpaired part of a
// node's list, view, which began as stack[mark:]. It panics if pairing
// moved the view off the stack's backing array: the entries left
// unpaired would then be lost.
func settle[E any](stack, view []E, mark int) []E {
	if len(view) > 0 && &view[0] != &stack[mark] {
		panic("core: VSA pairing moved a node's list off its walk's stack")
	}
	return stack[:mark+len(view)]
}

// runVSA performs the virtual server assignment sweep. states is the
// classification of place.Nodes; start is the virtual time at which
// nodes know their class (end of LBI dissemination). Each KT node
// merges its own inbox, then its children's unpaired lists, and pairs
// by PairList.Rendezvous — the rule lbnode.VSACollect applies in the
// message-level driver. The sweep forks at the root (see forkRoot):
// every root child's walk folds its subtree on its own stack, and the
// root step takes the children's pairings in child order, which is the
// order the post-order walk emits them in, and appends its own.
func (b *Balancer) runVSA(place *Placement, states []*NodeState, global LBI, start sim.Time) vsaOutcome {
	tree := b.tree
	root := tree.Root()
	in, offers, publishEnd := b.vsaInbox(place, states, start)
	walk := func(run []deposit, assigned []Assignment) vsaWalk {
		return vsaWalk{b: b, root: root, states: states, in: run, start: publishEnd, lmin: global.Lmin, assigned: assigned}
	}
	// Every pairing consumes an offer, so a run's offers bound the
	// pairings of the walk over it. The round's assignments go in one
	// slice: each root child's walk pairs into the window its run's
	// offers span, the windows are closed up after the join, and the
	// root step pairs on past them.
	all := make([]Assignment, offers)
	kids := make([]vsaSub, tree.NumChildren(root))
	walks := make([]vsaWalk, len(kids))
	rest := forkRoot(tree, root, in, func(i int, c ktree.Handle, run []deposit) {
		var lo, hi int
		if len(run) > 0 {
			last := run[len(run)-1]
			lo, hi = int(run[0].ahead), int(last.ahead)+len(states[last.i].Offers)
		}
		w := &walks[i]
		*w = walk(run, all[lo:lo:hi])
		ready := w.up(c, nil)
		mustBeConsumed(w.in)
		kids[i] = vsaSub{left: w.stack, ready: ready}
	})
	top := walk(rest, nil)
	var done, nl, no int
	for i := range walks {
		w := &walks[i]
		done += copy(all[done:], w.assigned)
		top.reports += w.reports
		top.reportCost += w.reportCost
		top.assigns += w.assigns
		top.assignCost += w.assignCost
		nl += kids[i].left.Lights()
		no += kids[i].left.Offers()
	}
	top.assigned = all[:done]
	// The root's list is its children's leftovers, copied in.
	top.stack.lists = vsaLists{lights: make([]lightEntry, 0, nl), offers: make([]offerEntry, 0, no)}
	ready := top.up(root, kids)
	mustBeConsumed(top.in)
	eng := b.ring.Engine()
	eng.CountMessageN(MsgVSAReport, top.reports, top.reportCost)
	eng.CountMessageN(MsgVSAAssign, top.assigns, top.assignCost)
	return vsaOutcome{
		assignments:  top.assigned,
		left:         top.stack,
		publishTime:  publishEnd,
		completeTime: ready,
	}
}

// vsaInbox deposits each heavy/light node's VSA information at the KT
// leaf where it enters the tree, per the configured mode, and returns
// the deposits as a sorted inbox, the number of offers they bring, and
// the virtual time at which the slowest publish finished (equal to
// start in ignorant mode, which publishes nothing).
func (b *Balancer) vsaInbox(place *Placement, states []*NodeState, start sim.Time) ([]deposit, int, sim.Time) {
	eng := b.ring.Engine()
	tree := b.tree
	root := tree.Root()
	in := make([]deposit, 0, len(states))
	publishEnd := start
	var publishes int64
	var publishCost sim.Time
	for i, st := range states {
		if st.Class == Neutral {
			continue
		}
		var leaf ktree.Handle
		var group uint64
		switch b.cfg.Mode {
		case ProximityIgnorant:
			// The node reports through one of its own (randomly chosen)
			// virtual servers, drawn by the placement: its position in
			// the sweep is its random location in the identifier space
			// (§3.4 footnote).
			leaf = place.VSALeaf[st.Node.Index]
		case ProximityAware:
			// The node publishes its VSA information into the DHT under
			// its Hilbert-number key (§4.3): one put message routed in
			// O(log V) hops; the owning virtual server reports the
			// entries to its one leaf for the round.
			key := b.cfg.Mapper.Key(st.Node.Underlay)
			if cm, ok := b.cfg.Mapper.(CellMapper); ok {
				group = cm.Cell(st.Node.Underlay)
			} else {
				group = uint64(key)
			}
			owner := b.ring.Successor(key)
			cost := lg2(b.ring.NumVServers()) + b.ring.Latency(st.Node, owner.Owner)
			publishes++
			publishCost += cost
			if t := start + cost; t > publishEnd {
				publishEnd = t
			}
			leaf = place.LeafOf(owner, eng.Rand())
		}
		if leaf.IsNil() {
			continue // fresh joiner: no leaf until the next repair
		}
		// ahead holds the node's own offers (none for a light node)
		// until the inbox is sorted.
		in = append(in, deposit{off: leafOffset(tree, root, leaf), i: int32(i), ahead: int32(len(st.Offers)), group: group})
	}
	eng.CountMessageN(MsgVSAPublish, publishes, publishCost)
	sortDeposits(in)
	var offers int32
	for j := range in {
		in[j].ahead, offers = offers, offers+in[j].ahead
	}
	return in, int(offers), publishEnd
}
