package core

import (
	"math"
	"sort"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
)

// SubsetStrategy selects the algorithm a heavy node uses to pick the
// virtual servers it sheds (§3.4): choose the subset with minimal total
// load whose removal brings the node to or under its target, i.e.
// minimize Σ L_{i,k} subject to Σ L_{i,k} >= excess.
type SubsetStrategy int

// Strategies.
const (
	// SubsetAuto uses the exact solver for small VS counts and the
	// greedy one beyond exactLimit.
	SubsetAuto SubsetStrategy = iota
	// SubsetExact searches for the optimum (exponential in the worst
	// case; only for small counts) and falls back to greedy beyond
	// maxExact.
	SubsetExact
	// SubsetGreedy takes loads in descending order until the excess is
	// covered, then prunes and improves with single swaps.
	SubsetGreedy
)

// exactLimit is the VS count up to which SubsetAuto searches exactly
// (2^16 subsets at most).
const exactLimit = 16

// maxExact is the most virtual servers exactSubset takes: one bit of a
// uint64 mask each.
const maxExact = 64

// chooseShedSubset picks the virtual servers to shed. The returned
// slice is ordered by descending load; ops counts the work done — search
// nodes visited by the exact search, candidate evaluations by greedy —
// which instrumentation reports as core.subset.cost. It returns nil when
// excess <= 0.
func chooseShedSubset(vss []*chord.VServer, excess float64, strategy SubsetStrategy) (subset []*chord.VServer, ops int64) {
	if excess <= 0 || len(vss) == 0 {
		return nil, 0
	}
	sorted := sortedByLoad(vss)
	limit := exactLimit
	switch strategy {
	case SubsetExact:
		limit = maxExact
	case SubsetGreedy:
		limit = 0
	}
	if len(sorted) <= limit {
		return exactSubset(sorted, excess)
	}
	return greedySubset(sorted, excess)
}

// sortedByLoad returns a copy of vss by descending load, ties broken by
// identifier: the order the strategies take.
func sortedByLoad(vss []*chord.VServer) []*chord.VServer {
	sorted := append([]*chord.VServer(nil), vss...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Load != sorted[j].Load {
			return sorted[i].Load > sorted[j].Load
		}
		return ident.Compare(sorted[i].ID, sorted[j].ID) < 0
	})
	return sorted
}

// exactSubset returns the subset with minimal total load >= excess,
// preferring fewer virtual servers on ties and then the smallest index
// mask, which is the first subset in ascending mask order. A subset's
// load is its members' loads added in ascending index order from 0, so
// every total is computed bit for bit as one left fold. Input must be
// sorted by descending load, with loads >= 0 and at most maxExact of
// them. ops counts the search nodes visited.
//
// The search decides sorted[0], sorted[1], … in turn, including before
// excluding. Adding a load >= 0 never lowers a fold, which gives three
// exact prunes: a prefix that covers the excess is recorded and not
// extended (an extension only adds load and members); a prefix whose
// total is above the best so far is dropped; and a prefix that cannot
// reach the excess even by taking every remaining load is dropped.
func exactSubset(sorted []*chord.VServer, excess float64) ([]*chord.VServer, int64) {
	s := shedSearch{vss: sorted, excess: excess, bestSum: math.Inf(1)}
	if s.reach(0, 0) >= excess {
		s.visit(0, 0, 0, 0)
	}
	if s.bestCount == 0 {
		// Even shedding everything cannot reach the excess (impossible
		// when excess = load − target <= load, but guard anyway): shed all.
		return sorted, s.visited
	}
	out := make([]*chord.VServer, 0, s.bestCount)
	for i, vs := range sorted {
		if s.bestMask>>uint(i)&1 == 1 {
			out = append(out, vs)
		}
	}
	return out, s.visited
}

// shedSearch is exactSubset's depth-first search state.
type shedSearch struct {
	vss       []*chord.VServer
	excess    float64
	bestSum   float64
	bestCount int // 0 until a subset covers the excess
	bestMask  uint64
	visited   int64
}

// reach is the fold that continues sum with every load from vss[i] on:
// the largest total any completion of a prefix summing to sum can have.
func (s *shedSearch) reach(i int, sum float64) float64 {
	for _, vs := range s.vss[i:] {
		sum += vs.Load
	}
	return sum
}

// visit extends a prefix that decided vss[:i] — members mask, count of
// them, total sum below the excess, reach(i, sum) >= excess — by
// deciding vss[i] and, recursively, the rest.
func (s *shedSearch) visit(i int, sum float64, count int, mask uint64) {
	s.visited++
	if in := sum + s.vss[i].Load; in <= s.bestSum {
		m := mask | 1<<uint(i)
		if in >= s.excess {
			s.record(in, count+1, m)
		} else {
			// reach(i+1, in) is reach(i, sum): the same fold.
			s.visit(i+1, in, count+1, m)
		}
	}
	if i+1 < len(s.vss) {
		if s.reach(i+1, sum) >= s.excess {
			s.visit(i+1, sum, count, mask)
		}
	}
}

// record keeps a covering subset if it is the least so far in (total,
// count, mask) order.
func (s *shedSearch) record(sum float64, count int, mask uint64) {
	if s.bestCount == 0 || sum < s.bestSum ||
		sum == s.bestSum && (count < s.bestCount || count == s.bestCount && mask < s.bestMask) {
		s.bestSum, s.bestCount, s.bestMask = sum, count, mask
	}
}

// greedySubset covers the excess with loads in descending order, then
// (1) drops any member whose removal keeps the excess covered, smallest
// first, and (2) repeatedly swaps a chosen VS for a smaller unchosen one
// while feasibility holds. Input must be sorted by descending load.
func greedySubset(sorted []*chord.VServer, excess float64) ([]*chord.VServer, int64) {
	chosen := make([]bool, len(sorted))
	var sum float64
	var ops int64
	for i, vs := range sorted {
		ops++
		if sum >= excess {
			break
		}
		chosen[i] = true
		sum += vs.Load
	}
	if sum < excess {
		return append([]*chord.VServer(nil), sorted...), ops
	}
	// Drop pass: smallest chosen first (slice is descending, iterate
	// from the end).
	for i := len(sorted) - 1; i >= 0; i-- {
		ops++
		if chosen[i] && sum-sorted[i].Load >= excess {
			chosen[i] = false
			sum -= sorted[i].Load
		}
	}
	// Swap pass: replace a chosen VS with a smaller unchosen one when
	// that lowers the total while staying feasible.
	improved := true
	for improved {
		improved = false
		for i := range sorted {
			if !chosen[i] {
				continue
			}
			for j := i + 1; j < len(sorted); j++ {
				ops++
				if chosen[j] || sorted[j].Load >= sorted[i].Load {
					continue
				}
				if sum-sorted[i].Load+sorted[j].Load >= excess {
					chosen[i], chosen[j] = false, true
					sum += sorted[j].Load - sorted[i].Load
					improved = true
					break
				}
			}
		}
	}
	var out []*chord.VServer
	for i, vs := range sorted {
		if chosen[i] {
			out = append(out, vs)
		}
	}
	return out, ops
}

// subsetLoad sums the loads of a subset.
func subsetLoad(vss []*chord.VServer) float64 {
	var s float64
	for _, vs := range vss {
		s += vs.Load
	}
	return s
}
