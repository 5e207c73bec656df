package core

import (
	"cmp"
	"slices"
	"sort"

	"p2plb/internal/ktree"
	"p2plb/internal/par"
)

// The oracle's two converge-casts — LBI aggregation (§3.2) and the VSA
// sweep (§3.4) — are post-order folds of the KT tree that start from
// what the placement deposited at the leaves. A root child's subtree
// shares nothing with its siblings until its result reaches the root,
// so each phase splits its one walk there: every root child's fold runs
// on its own goroutine over its own run of the deposits and writes only
// its own result slot, and after the join the root step runs the same
// fold code over the children's results in child order. The sequential
// walk would have met the same values in the same order, so the split
// changes nothing a round outputs, at any GOMAXPROCS.
//
// Deposits wait in one slice instead of a per-leaf map. Each carries
// its leaf's clockwise offset from the root's start (leafOffset), and
// the slice is sorted on it, ties in deposit order. KT children tile
// their parent's region clockwise from its start, so a post-order walk
// meets the leaves in ascending offset: a root child's deposits form
// one contiguous run, found by binary search, and a leaf's deposits are
// the run's next entries with its offset, in the order they were
// deposited.

// deposit is one entry of a sorted inbox: entry i of the phase's
// source list (a placed node's report, a classified node's
// advertisement) waits at the leaf whose leafOffset is off. group is
// the proximity cell an advertisement was published under, and ahead
// the number of offers advertised by the deposits before it in the
// sorted inbox, where a sweep's walk places its pairings.
type deposit struct {
	off   uint64
	i     int32
	ahead int32
	group uint64
}

// leafOffset is a leaf's sort key in the inboxes: the clockwise
// distance from the root's region start to the leaf's.
func leafOffset(tree *ktree.Tree, root, leaf ktree.Handle) uint64 {
	return tree.Region(root).Start.Dist(tree.Region(leaf).Start)
}

// sortDeposits orders in by leaf offset and, within a leaf, by source
// index — the order the entries were deposited in.
func sortDeposits(in []deposit) {
	slices.SortFunc(in, func(a, b deposit) int {
		return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.i, b.i))
	})
}

// forkRoot runs fold(i, c, run) for every child c of root, the i-th
// clockwise, each on its own goroutine, where run is the part of the
// sorted inbox in that child's subtree, and returns once all have
// finished. It returns the deposits left for the root itself: all of
// them when the root is a leaf (no children), none otherwise.
func forkRoot(tree *ktree.Tree, root ktree.Handle, in []deposit, fold func(i int, c ktree.Handle, run []deposit)) []deposit {
	if tree.IsLeaf(root) {
		return in
	}
	kids := make([]ktree.Handle, 0, tree.NumChildren(root))
	bounds := make([]int, 1, cap(kids)+1)
	for c := tree.FirstChild(root); !c.IsNil(); c = tree.NextSibling(c) {
		if len(kids) > 0 {
			off := leafOffset(tree, root, c)
			bounds = append(bounds, sort.Search(len(in), func(j int) bool { return in[j].off >= off }))
		}
		kids = append(kids, c)
	}
	bounds = append(bounds, len(in))
	par.For(len(kids), 0, func(i int) { fold(i, kids[i], in[bounds[i]:bounds[i+1]]) })
	return nil
}

// leafRun returns the deposits at the front of *in that wait at leaf
// and advances *in past them.
//
//lbvet:hotpath
func leafRun(in *[]deposit, tree *ktree.Tree, root, leaf ktree.Handle) []deposit {
	off := leafOffset(tree, root, leaf)
	s := *in
	k := 0
	for k < len(s) && s[k].off == off {
		k++
	}
	*in = s[k:]
	return s[:k]
}

// mustBeConsumed panics if a fold finished with deposits it never
// reached: they were keyed to no leaf of its subtree.
func mustBeConsumed(rest []deposit) {
	if len(rest) > 0 {
		panic("core: inbox deposits out of leaf order")
	}
}
