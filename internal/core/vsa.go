package core

import (
	"cmp"
	"slices"
	"sort"

	"p2plb/internal/chord"
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
	return cmp.Compare(a.vs.ID, b.vs.ID)
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
func (v *vsaLists) pairLocal(lmin float64, out []Pair) []Pair {
	slices.SortFunc(v.lights, func(a, b lightEntry) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmpLight(a, b))
	})
	slices.SortFunc(v.offers, func(a, b offerEntry) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmpOffer(a, b))
	})
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

// pairAll runs the paper's pairing loop on sorted lists: repeatedly take
// the heaviest offered VS, match it to the light node with the smallest
// deficit that still fits (ΔL_j >= L_{i,k}), and re-insert the residual
// deficit if it is at least lmin. Pairs are appended to out. Offers that
// fit no light node are left in v.offers (to be propagated upward).
// Lists must be sorted; they remain sorted on return.
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
		pos := sort.Search(len(v.lights), func(j int) bool {
			return v.lights[j].deficit >= o.load
		})
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
		v.lights = append(v.lights[:pos], v.lights[pos+1:]...)
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

// vsaSub is one subtree's sweep result: its unpaired entries and when
// they are ready at the subtree's root.
type vsaSub struct {
	lists PairList
	ready sim.Time
}

// vsaWalk folds one part of the VSA sweep: the pairings it emitted in
// post-order, its message tallies, and the deposits it has yet to
// reach.
type vsaWalk struct {
	b          *Balancer
	root       ktree.Handle
	states     []*NodeState // the classified nodes the deposits index
	in         []deposit
	start      sim.Time // when every advertisement is at its leaf
	lmin       float64
	assigned   []Assignment
	reports    int64
	reportCost sim.Time
	assigns    int64
	assignCost sim.Time
}

// up folds n's subtree: each KT node merges its own deposits, then its
// children's unpaired lists in child order, and pairs by
// PairList.Rendezvous. kids, when non-nil, holds the children's results
// already folded (the root step after the fork); otherwise up recurses
// into them.
func (w *vsaWalk) up(n ktree.Handle, kids []vsaSub) vsaSub {
	var lists PairList
	ready := w.start
	if w.b.tree.IsLeaf(n) { // placement deposits only at leaves
		for _, d := range leafRun(&w.in, w.b.tree, w.root, n) {
			lists.Deposit(w.states[d.i], d.group)
		}
	}
	i := 0
	for c := w.b.tree.FirstChild(n); !c.IsNil(); c, i = w.b.tree.NextSibling(c), i+1 {
		var k vsaSub
		if kids != nil {
			k = kids[i]
		} else {
			k = w.up(c, nil)
		}
		// Every child sends one (possibly empty) epoch report; empty
		// reports still synchronize the converge-cast.
		edge := w.b.tree.EdgeLatency(c)
		w.reports++
		w.reportCost += edge
		if t := k.ready + edge; t > ready {
			ready = t
		}
		if lists.Size() == 0 {
			lists = k.lists // nothing to copy into: take the child's list over
		} else {
			lists.Merge(&k.lists)
		}
	}
	ring := w.b.ring
	host := w.b.tree.Host(n).Owner
	for _, p := range lists.Rendezvous(n == w.root, w.b.cfg.RendezvousThreshold, w.lmin) {
		// Rendezvous notifies both endpoints directly.
		w.assigns += 2
		w.assignCost += ring.Latency(host, p.From) + 1 + ring.Latency(host, p.To) + 1
		w.assigned = append(w.assigned, Assignment{
			VS:         p.VS,
			From:       p.From,
			To:         p.To,
			Load:       p.Load,
			AssignedAt: ready,
			Depth:      w.b.tree.Depth(n),
		})
	}
	return vsaSub{lists: lists, ready: ready}
}

// runVSA performs the virtual server assignment sweep. states is the
// classification of place.Nodes; start is the virtual time at which
// nodes know their class (end of LBI dissemination). Each KT node
// merges its own inbox, then its children's unpaired lists, and pairs
// by PairList.Rendezvous — the rule lbnode.VSACollect applies in the
// message-level driver. The sweep forks at the root (see forkRoot):
// the root step takes the children's pairings in child order, which is
// the order the post-order walk emits them in, and appends its own.
func (b *Balancer) runVSA(place *Placement, states []*NodeState, global LBI, start sim.Time) vsaOutcome {
	tree := b.tree
	root := tree.Root()
	in, publishEnd := b.vsaInbox(place, states, start)
	walk := func(run []deposit) vsaWalk {
		// Every pairing consumes an offer, so the run's offers bound
		// the walk's pairings.
		offers := 0
		for _, d := range run {
			offers += len(states[d.i].Offers)
		}
		return vsaWalk{b: b, root: root, states: states, in: run, start: publishEnd, lmin: global.Lmin,
			assigned: make([]Assignment, 0, offers)}
	}
	kids := make([]vsaSub, tree.NumChildren(root))
	walks := make([]vsaWalk, len(kids))
	rest := forkRoot(tree, root, in, func(i int, c ktree.Handle, run []deposit) {
		w := &walks[i]
		*w = walk(run)
		kids[i] = w.up(c, nil)
		mustBeConsumed(w.in)
	})
	top := walk(rest)
	total := cap(top.assigned)
	for i := range walks {
		total += len(walks[i].assigned) + kids[i].lists.Offers()
	}
	top.assigned = make([]Assignment, 0, total)
	for i := range walks {
		w := &walks[i]
		top.assigned = append(top.assigned, w.assigned...)
		top.reports += w.reports
		top.reportCost += w.reportCost
		top.assigns += w.assigns
		top.assignCost += w.assignCost
	}
	last := top.up(root, kids)
	mustBeConsumed(top.in)
	eng := b.ring.Engine()
	eng.CountMessageN(MsgVSAReport, top.reports, top.reportCost)
	eng.CountMessageN(MsgVSAAssign, top.assigns, top.assignCost)
	return vsaOutcome{
		assignments:  top.assigned,
		left:         last.lists,
		publishTime:  publishEnd,
		completeTime: last.ready,
	}
}

// vsaInbox deposits each heavy/light node's VSA information at the KT
// leaf where it enters the tree, per the configured mode, and returns
// the deposits as a sorted inbox with the virtual time at which the
// slowest publish finished (equal to start in ignorant mode, which
// publishes nothing).
func (b *Balancer) vsaInbox(place *Placement, states []*NodeState, start sim.Time) ([]deposit, sim.Time) {
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
		in = append(in, deposit{off: leafOffset(tree, root, leaf), i: int32(i), group: group})
	}
	eng.CountMessageN(MsgVSAPublish, publishes, publishCost)
	sortDeposits(in)
	return in, publishEnd
}
