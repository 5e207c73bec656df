package core

import (
	"p2plb/internal/chord"
)

// This file exports the rendezvous-pairing primitives so that every
// execution of the scheme — Balancer.RunRound, the event-driven
// message-level runner in internal/protocol and the multi-process
// cluster — shares one implementation instead of re-deriving the rules.

// Pair is one emitted pairing: virtual server VS moves from heavy node
// From to light node To.
type Pair struct {
	VS   *chord.VServer
	From *chord.Node
	To   *chord.Node
	Load float64
}

// PairList is the pair of sorted lists a rendezvous KT node maintains
// (§3.4): light-node deficits and offered virtual servers. The zero
// value is an empty list, and so is a nil *PairList to Size, Offers,
// OfferLoad, Entries and Rendezvous.
type PairList struct {
	lists vsaLists
}

// AddLight records a light node's advertisement <ΔL_j, ip_addr(j)>.
// group is the proximity cell the entry was published under (0 when
// proximity-ignorant).
func (p *PairList) AddLight(deficit float64, node *chord.Node, group uint64) {
	p.lists.lights = append(p.lists.lights, lightEntry{deficit: deficit, node: node, group: group})
}

// AddOffer records one shed virtual server <L_{i,k}, v_{i,k}, ip_addr(i)>.
func (p *PairList) AddOffer(vs *chord.VServer, node *chord.Node, group uint64) {
	p.lists.offers = append(p.lists.offers, offerEntry{load: vs.Load, vs: vs, node: node, group: group})
}

// Deposit records one classified node's VSA advertisement: a light
// node contributes its deficit entry <ΔL_j, ip_addr(j)>, a heavy node
// one offer per shed virtual server. Neutral nodes deposit nothing.
// group is the proximity cell the advertisement was published under (0
// when proximity-ignorant).
func (p *PairList) Deposit(st *NodeState, group uint64) {
	switch st.Class {
	case Light:
		p.AddLight(st.Deficit, st.Node, group)
	case Heavy:
		for _, vs := range st.Offers {
			p.AddOffer(vs, st.Node, group)
		}
	}
}

// Merge absorbs o's entries; o must not be used afterwards.
func (p *PairList) Merge(o *PairList) { p.lists.merge(o.lists) }

// Size returns the combined length of the two lists (the rendezvous
// threshold quantity).
func (p *PairList) Size() int {
	if p == nil {
		return 0
	}
	return p.lists.size()
}

// Lights returns the number of light entries currently held.
func (p *PairList) Lights() int { return len(p.lists.lights) }

// Offers returns the number of offered virtual servers currently held.
func (p *PairList) Offers() int {
	if p == nil {
		return 0
	}
	return len(p.lists.offers)
}

// OfferLoad sums the loads of the held offers.
func (p *PairList) OfferLoad() float64 {
	var s float64
	if p == nil {
		return s
	}
	for _, o := range p.lists.offers {
		s += o.load
	}
	return s
}

// LightEntry is one held light-node advertisement, exposed for
// executors that must serialize a PairList across a process boundary.
type LightEntry struct {
	Deficit float64
	Node    *chord.Node
	Group   uint64
}

// OfferEntry is one held shed-VS offer, exposed for serialization.
type OfferEntry struct {
	VS    *chord.VServer
	Node  *chord.Node
	Group uint64
}

// Entries returns copies of the currently held advertisements — the
// payload a wire executor ships to the parent KT node. The list itself
// is not consumed.
func (p *PairList) Entries() ([]LightEntry, []OfferEntry) {
	if p == nil {
		return nil, nil
	}
	lights := make([]LightEntry, len(p.lists.lights))
	for i, l := range p.lists.lights {
		lights[i] = LightEntry{Deficit: l.deficit, Node: l.node, Group: l.group}
	}
	offers := make([]OfferEntry, len(p.lists.offers))
	for i, o := range p.lists.offers {
		offers[i] = OfferEntry{VS: o.vs, Node: o.node, Group: o.group}
	}
	return lights, offers
}

// Rendezvous is the §3.4 rendezvous rule at one KT node whose list is
// complete: the node pairs when it holds any entries and is the root,
// or when its combined list length reaches threshold. Zero threshold
// means DefaultRendezvousThreshold; a negative one disables
// intermediate rendezvous, so pairing happens only at the root. It
// returns the emitted pairings (nil when the node does not pair);
// unpaired entries stay held for the parent.
func (p *PairList) Rendezvous(isRoot bool, threshold int, lmin float64) []Pair {
	if threshold == 0 {
		threshold = DefaultRendezvousThreshold
	}
	if size := p.Size(); size == 0 || !(isRoot || (threshold > 0 && size >= threshold)) {
		return nil
	}
	return p.Pair(lmin)
}

// Pair runs the pairing unconditionally: proximity-local pairing first
// (same publication cell), then the paper's pooled heaviest-offer ×
// best-fit rule, re-inserting residual deficits of at least lmin.
// Pooled pairing at an intermediate rendezvous point would marry
// leftovers of unrelated cells long before all candidates from nearby
// cells have merged, so cross-cell leftovers pair at the root,
// preferring the nearest cell (§4.2). Unpaired entries remain held for
// propagation to the parent.
func (p *PairList) Pair(lmin float64) []Pair {
	v := &p.lists
	// Every pair consumes one offer, and nothing pairs without a light.
	n := len(v.offers)
	if len(v.lights) == 0 {
		n = 0
	}
	out := make([]Pair, 0, n)
	if v.oneCell() {
		// Within one cell the local pass is the pooled rule, and it
		// leaves nothing a second pass could pair: an offer was left
		// only when no deficit fit it, and deficits only shrink.
		v.sort()
		return v.pairAll(lmin, out)
	}
	out = v.pairLocal(lmin, out)
	return v.pairAll(lmin, out)
}
