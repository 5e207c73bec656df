package core

import (
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

// sortLists establishes the canonical orders with deterministic
// tiebreaks.
func (v *vsaLists) sort() {
	sort.Slice(v.lights, func(i, j int) bool {
		if v.lights[i].deficit != v.lights[j].deficit {
			return v.lights[i].deficit < v.lights[j].deficit
		}
		return v.lights[i].node.Index < v.lights[j].node.Index
	})
	sort.Slice(v.offers, func(i, j int) bool {
		if v.offers[i].load != v.offers[j].load {
			return v.offers[i].load < v.offers[j].load
		}
		return v.offers[i].vs.ID < v.offers[j].vs.ID //lbvet:ignore identcompare deterministic tiebreak wants a total order, not ring distance
	})
}

// merge absorbs o's entries (both lists stay unsorted until sort()).
func (v *vsaLists) merge(o vsaLists) {
	v.lights = append(v.lights, o.lights...)
	v.offers = append(v.offers, o.offers...)
}

// insertLight re-inserts a residual deficit, keeping lights sorted.
func (v *vsaLists) insertLight(e lightEntry) {
	pos := sort.Search(len(v.lights), func(i int) bool {
		if v.lights[i].deficit != e.deficit {
			return v.lights[i].deficit > e.deficit
		}
		return v.lights[i].node.Index >= e.node.Index
	})
	v.lights = append(v.lights, lightEntry{})
	copy(v.lights[pos+1:], v.lights[pos:])
	v.lights[pos] = e
}

// pairing is an Assignment before timing/cost annotation.
type pairing struct {
	offer offerEntry
	to    *chord.Node
}

// pairLocal pairs entries cell by cell: offers are matched only against
// light nodes from the same landmark-space grid cell (equal group).
// This implements the proximity-aware goal of §4.2 — "guide heavy nodes
// to assign as many virtual servers as possible to those physically
// close light nodes (if any) ... until no further appropriate virtual
// server assignment can be achieved" — before any cross-cell pooling.
// Leftovers of all groups remain in v (sorted) for pairAll. In
// proximity-ignorant mode every entry has group 0, so pairLocal reduces
// to pairAll and the combined behaviour is unchanged.
func (v *vsaLists) pairLocal(lmin float64) []pairing {
	// Partition both lists by group.
	lightsBy := make(map[uint64][]lightEntry)
	for _, l := range v.lights {
		lightsBy[l.group] = append(lightsBy[l.group], l)
	}
	offersBy := make(map[uint64][]offerEntry)
	for _, o := range v.offers {
		offersBy[o.group] = append(offersBy[o.group], o)
	}
	groups := make([]uint64, 0, len(offersBy))
	for g := range offersBy {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	var pairs []pairing
	v.lights = v.lights[:0]
	v.offers = v.offers[:0]
	// Pair within each offer group; groups without offers keep their
	// lights untouched.
	for _, g := range groups {
		sub := vsaLists{lights: lightsBy[g], offers: offersBy[g]}
		delete(lightsBy, g)
		sub.sort()
		pairs = append(pairs, sub.pairAll(lmin)...)
		v.lights = append(v.lights, sub.lights...)
		v.offers = append(v.offers, sub.offers...)
	}
	for _, lights := range lightsBy {
		v.lights = append(v.lights, lights...)
	}
	v.sort()
	return pairs
}

// pairAll runs the paper's pairing loop on sorted lists: repeatedly take
// the heaviest offered VS, match it to the light node with the smallest
// deficit that still fits (ΔL_j >= L_{i,k}), and re-insert the residual
// deficit if it is at least lmin. Offers that fit no light node are left
// in v.offers (to be propagated upward). Lists must be sorted; they
// remain sorted on return.
func (v *vsaLists) pairAll(lmin float64) []pairing {
	var pairs []pairing
	var unpaired []offerEntry
	for len(v.offers) > 0 {
		// Heaviest remaining offer.
		o := v.offers[len(v.offers)-1]
		v.offers = v.offers[:len(v.offers)-1]
		// Feasible light nodes: deficit >= o.load (a suffix of the
		// deficit-sorted list).
		pos := sort.Search(len(v.lights), func(i int) bool {
			return v.lights[i].deficit >= o.load
		})
		if pos == len(v.lights) {
			unpaired = append(unpaired, o)
			continue
		}
		// Among feasible lights, prefer the one whose publication group
		// (Hilbert number) is nearest the offer's — physically closest
		// first (§4.2) — breaking ties by smallest deficit (§3.4). With
		// ungrouped entries every group distance is 0, so this is
		// exactly the paper's best-fit rule.
		for i := pos + 1; i < len(v.lights); i++ {
			if groupDist(v.lights[i].group, o.group) < groupDist(v.lights[pos].group, o.group) {
				pos = i
			}
		}
		l := v.lights[pos]
		v.lights = append(v.lights[:pos], v.lights[pos+1:]...)
		pairs = append(pairs, pairing{offer: o, to: l.node})
		if residual := l.deficit - o.load; residual >= lmin && residual > 0 {
			v.insertLight(lightEntry{deficit: residual, node: l.node})
		}
	}
	// unpaired was built from heaviest to lightest; restore ascending.
	for i, j := 0, len(unpaired)-1; i < j; i, j = i+1, j-1 {
		unpaired[i], unpaired[j] = unpaired[j], unpaired[i]
	}
	v.offers = unpaired
	return pairs
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

// runVSA performs the virtual server assignment sweep. states is the
// classification of place.Nodes; start is the virtual time at which
// nodes know their class (end of LBI dissemination). Each KT node
// merges its own inbox, then its children's unpaired lists, and pairs
// by PairList.Rendezvous — the rule lbnode.VSACollect applies in the
// message-level driver.
func (b *Balancer) runVSA(place *Placement, states []*NodeState, global LBI, start sim.Time) vsaOutcome {
	eng := b.ring.Engine()
	inbox, publishEnd := b.buildVSAInboxes(place, states, start)

	var out vsaOutcome
	out.publishTime = publishEnd

	var up func(n *ktree.Node) (PairList, sim.Time)
	up = func(n *ktree.Node) (PairList, sim.Time) {
		var lists PairList
		ready := publishEnd
		if in := inbox[n]; in != nil {
			lists.Merge(in)
		}
		for _, c := range n.Children {
			childLists, childReady := up(c)
			// Every child sends one (possibly empty) epoch report; empty
			// reports still synchronize the converge-cast.
			edge := b.tree.EdgeLatency(c)
			eng.CountMessage(MsgVSAReport, edge)
			if t := childReady + edge; t > ready {
				ready = t
			}
			lists.Merge(&childLists)
		}
		for _, p := range lists.Rendezvous(n.Parent == nil, b.cfg.RendezvousThreshold, global.Lmin) {
			// Rendezvous notifies both endpoints directly.
			costFrom := b.ring.Latency(n.Host.Owner, p.From) + 1
			costTo := b.ring.Latency(n.Host.Owner, p.To) + 1
			eng.CountMessage(MsgVSAAssign, costFrom)
			eng.CountMessage(MsgVSAAssign, costTo)
			out.assignments = append(out.assignments, Assignment{
				VS:         p.VS,
				From:       p.From,
				To:         p.To,
				Load:       p.Load,
				AssignedAt: ready,
				Depth:      n.Depth,
			})
		}
		return lists, ready
	}
	out.left, out.completeTime = up(b.tree.Root())
	return out
}

// buildVSAInboxes deposits each heavy/light node's VSA information at
// the KT leaf where it enters the tree, per the configured mode. It
// returns the per-leaf inboxes and the virtual time at which the
// slowest publish finished (equal to start in ignorant mode, which
// publishes nothing).
func (b *Balancer) buildVSAInboxes(place *Placement, states []*NodeState, start sim.Time) (map[*ktree.Node]*PairList, sim.Time) {
	eng := b.ring.Engine()
	inbox := make(map[*ktree.Node]*PairList)
	publishEnd := start
	for _, st := range states {
		if st.Class == Neutral {
			continue
		}
		var leaf *ktree.Node
		var group uint64
		switch b.cfg.Mode {
		case ProximityIgnorant:
			// The node reports through one of its own (randomly chosen)
			// virtual servers, drawn by the placement: its position in
			// the sweep is its random location in the identifier space
			// (§3.4 footnote).
			leaf = place.VSALeaf[st.Node]
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
			eng.CountMessage(MsgVSAPublish, cost)
			if t := start + cost; t > publishEnd {
				publishEnd = t
			}
			leaf = place.LeafOf(owner, eng.Rand())
		}
		if leaf == nil {
			continue // fresh joiner: no leaf until the next repair
		}
		pl := inbox[leaf]
		if pl == nil {
			pl = &PairList{}
			inbox[leaf] = pl
		}
		pl.Deposit(st, group)
	}
	return inbox, publishEnd
}
