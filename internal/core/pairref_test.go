package core

import (
	"sort"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
)

// This file keeps the pairing rule as it was first written — one
// sort.Slice per list, a map per cell, a fresh slice for the unpaired
// offers — as the reference the optimized vsaLists must match pair for
// pair (TestPairMatchesReference). It differs from that first version
// in its receiver type and in one rule fix both share: a residual
// deficit keeps the cell of the light node it came from.

// refLists is vsaLists under the reference implementation.
type refLists struct {
	lights []lightEntry
	offers []offerEntry
}

// refPair is PairList.Pair under the reference implementation.
func (v *refLists) refPair(lmin float64) []Pair {
	v.sort()
	pairs := v.pairLocal(lmin)
	pairs = append(pairs, v.pairAll(lmin)...)
	out := make([]Pair, len(pairs))
	for i, pr := range pairs {
		out[i] = Pair{VS: pr.offer.vs, From: pr.offer.node, To: pr.to, Load: pr.offer.load}
	}
	return out
}

// sortLists establishes the canonical orders with deterministic
// tiebreaks.
func (v *refLists) sort() {
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
		return ident.Compare(v.offers[i].vs.ID, v.offers[j].vs.ID) < 0
	})
}

// insertLight re-inserts a residual deficit, keeping lights sorted.
func (v *refLists) insertLight(e lightEntry) {
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
func (v *refLists) pairLocal(lmin float64) []pairing {
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
		sub := refLists{lights: lightsBy[g], offers: offersBy[g]}
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
func (v *refLists) pairAll(lmin float64) []pairing {
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
			v.insertLight(lightEntry{deficit: residual, node: l.node, group: l.group})
		}
	}
	// unpaired was built from heaviest to lightest; restore ascending.
	for i, j := 0, len(unpaired)-1; i < j; i, j = i+1, j-1 {
		unpaired[i], unpaired[j] = unpaired[j], unpaired[i]
	}
	v.offers = unpaired
	return pairs
}
