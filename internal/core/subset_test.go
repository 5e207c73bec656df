package core

import (
	"math"
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
)

// mkVSs builds bare virtual servers with the given loads (no ring).
func mkVSs(loads ...float64) []*chord.VServer {
	out := make([]*chord.VServer, len(loads))
	for i, l := range loads {
		out[i] = &chord.VServer{ID: ident.ID(i + 1), Load: l}
	}
	return out
}

func loadsOf(vss []*chord.VServer) []float64 {
	out := make([]float64, len(vss))
	for i, vs := range vss {
		out[i] = vs.Load
	}
	return out
}

// shed calls chooseShedSubset and discards the ops count.
func shed(vss []*chord.VServer, excess float64, s SubsetStrategy) []*chord.VServer {
	subset, _ := chooseShedSubset(vss, excess, s)
	return subset
}

func TestChooseShedSubsetZeroExcess(t *testing.T) {
	if got := shed(mkVSs(1, 2, 3), 0, SubsetAuto); got != nil {
		t.Fatalf("zero excess should shed nothing, got %v", loadsOf(got))
	}
	if got := shed(mkVSs(1, 2, 3), -5, SubsetAuto); got != nil {
		t.Fatal("negative excess should shed nothing")
	}
	if got := shed(nil, 5, SubsetAuto); got != nil {
		t.Fatal("no virtual servers, nothing to shed")
	}
}

func TestExactSubsetKnownCases(t *testing.T) {
	cases := []struct {
		loads  []float64
		excess float64
		want   float64 // minimal feasible sum
	}{
		{[]float64{5, 4, 3, 2, 1}, 6, 6},   // 4+2 or 5+1: sum 6
		{[]float64{5, 4, 3, 2, 1}, 5, 5},   // exactly 5
		{[]float64{5, 4, 3, 2, 1}, 14, 14}, // 5+4+3+2
		{[]float64{5, 4, 3, 2, 1}, 15, 15}, // everything
		{[]float64{10, 10, 10}, 1, 10},     // single item overshoot
		{[]float64{7}, 3, 7},               // only option
		{[]float64{2, 2, 2}, 3, 4},         // two items
	}
	for _, c := range cases {
		got := shed(mkVSs(c.loads...), c.excess, SubsetExact)
		if sum := subsetLoad(got); sum != c.want {
			t.Errorf("exact(%v, %v) shed %v (sum %v), want sum %v",
				c.loads, c.excess, loadsOf(got), sum, c.want)
		}
		if sum := subsetLoad(got); sum < c.excess {
			t.Errorf("exact result infeasible: %v < %v", sum, c.excess)
		}
	}
}

func TestExactPrefersFewerVSsOnTies(t *testing.T) {
	// Sum 6 reachable as {6} or {4,2}: prefer the single VS.
	got := shed(mkVSs(6, 4, 2), 6, SubsetExact)
	if len(got) != 1 || got[0].Load != 6 {
		t.Fatalf("want single VS of load 6, got %v", loadsOf(got))
	}
}

func TestGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		loads := make([]float64, n)
		var total float64
		for i := range loads {
			loads[i] = float64(rng.Intn(100)) / 4
			total += loads[i]
		}
		excess := rng.Float64() * total
		if excess == 0 {
			continue
		}
		got := shed(mkVSs(loads...), excess, SubsetGreedy)
		if sum := subsetLoad(got); sum < excess {
			t.Fatalf("greedy infeasible: loads=%v excess=%v shed=%v",
				loads, excess, loadsOf(got))
		}
	}
}

func TestGreedyNearOptimal(t *testing.T) {
	// Greedy (with its drop and swap passes) should land within 25% of
	// the exact optimum on random instances, and exact must never be
	// worse than greedy.
	rng := rand.New(rand.NewSource(2))
	var ratioSum float64
	trials := 500
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(10)
		loads := make([]float64, n)
		var total float64
		for i := range loads {
			loads[i] = 1 + rng.Float64()*20
			total += loads[i]
		}
		excess := rng.Float64() * total * 0.8
		exact := subsetLoad(shed(mkVSs(loads...), excess, SubsetExact))
		greedy := subsetLoad(shed(mkVSs(loads...), excess, SubsetGreedy))
		if greedy < exact-1e-9 {
			t.Fatalf("greedy %v beat exact %v — exact is not optimal", greedy, exact)
		}
		ratioSum += greedy / exact
	}
	if avg := ratioSum / float64(trials); avg > 1.25 {
		t.Errorf("greedy averages %.3fx the optimum, want <= 1.25x", avg)
	}
}

func TestAutoStrategyDispatch(t *testing.T) {
	// <= exactLimit VSs: auto must match exact.
	loads := []float64{9, 7, 5, 3, 1}
	auto := subsetLoad(shed(mkVSs(loads...), 8, SubsetAuto))
	exact := subsetLoad(shed(mkVSs(loads...), 8, SubsetExact))
	if auto != exact {
		t.Fatalf("auto %v != exact %v for small instance", auto, exact)
	}
	// > exactLimit VSs: auto must still be feasible (greedy path).
	big := make([]float64, exactLimit+5)
	for i := range big {
		big[i] = float64(i + 1)
	}
	got := shed(mkVSs(big...), 40, SubsetAuto)
	if subsetLoad(got) < 40 {
		t.Fatal("auto infeasible on large instance")
	}
}

func TestSubsetDeterministic(t *testing.T) {
	loads := []float64{4, 4, 4, 4}
	a := shed(mkVSs(loads...), 7, SubsetExact)
	b := shed(mkVSs(loads...), 7, SubsetExact)
	if len(a) != len(b) {
		t.Fatal("nondeterministic subset size")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("nondeterministic subset choice")
		}
	}
}

func TestSubsetOrderedByDescendingLoad(t *testing.T) {
	got := shed(mkVSs(1, 9, 5, 7, 3), 20, SubsetExact)
	for i := 1; i < len(got); i++ {
		if got[i].Load > got[i-1].Load {
			t.Fatalf("subset not descending: %v", loadsOf(got))
		}
	}
}

// enumerateSubset is the reference exactSubset: every mask in ascending
// order, each total folded over its members in ascending index order,
// the first least (total, count) kept.
func enumerateSubset(sorted []*chord.VServer, excess float64) []*chord.VServer {
	n := len(sorted)
	bestSum, bestMask, bestCount := -1.0, uint32(0), n+1
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		var sum float64
		count := 0
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				sum += sorted[i].Load
				count++
			}
		}
		if sum < excess {
			continue
		}
		if bestSum < 0 || sum < bestSum || (sum == bestSum && count < bestCount) {
			bestSum, bestMask, bestCount = sum, mask, count
		}
	}
	if bestSum < 0 {
		return sorted
	}
	var out []*chord.VServer
	for i := 0; i < n; i++ {
		if bestMask>>uint(i)&1 == 1 {
			out = append(out, sorted[i])
		}
	}
	return out
}

// TestExactSubsetMatchesEnumeration holds the pruned search to the
// subset full enumeration picks, element by element, for n = 1…16 on
// integer, fractional and zero loads (so ties in total and count are
// common) and excesses from a sliver to more than the total.
func TestExactSubsetMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	cases := 0
	for n := 1; n <= exactLimit; n++ {
		trials := 2000
		if n > 10 {
			trials >>= uint(n - 10) // the reference costs n·2^n a case
		}
		for trial := 0; trial < trials; trial++ {
			loads := make([]float64, n)
			var total float64
			for i := range loads {
				switch trial % 3 {
				case 0: // small integers: many equal totals
					loads[i] = float64(rng.Intn(6))
				case 1: // fractions: fold order shows in the last ulp
					loads[i] = float64(rng.Intn(40)) / 10
				default: // reals with zeros mixed in
					if rng.Intn(4) > 0 {
						loads[i] = rng.Float64() * 100
					}
				}
				total += loads[i]
			}
			excess := rng.Float64() * total * 1.1
			switch trial % 7 {
			case 0:
				excess = total // everything, up to the fold
			case 1:
				excess = math.Nextafter(0, 1)
			case 2, 3: // whole numbers: some subsets cover it exactly
				excess = math.Ceil(excess)
			}
			if excess <= 0 {
				continue
			}
			vss := mkVSs(loads...)
			sorted := sortedByLoad(vss)
			want := enumerateSubset(sorted, excess)
			got, ops := exactSubset(sorted, excess)
			cases++
			if len(got) != len(want) {
				t.Fatalf("n=%d loads=%v excess=%v: search shed %v, enumeration %v", n, loads, excess, loadsOf(got), loadsOf(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d loads=%v excess=%v: search shed %v, enumeration %v", n, loads, excess, loadsOf(got), loadsOf(want))
				}
			}
			if limit := int64(1)<<uint(n+1) - 1; ops > limit {
				t.Fatalf("n=%d: visited %d search nodes, more than the %d of a full include/exclude tree", n, ops, limit)
			}
		}
	}
	if cases < 20000 {
		t.Fatalf("only %d cases ran", cases)
	}
}

func BenchmarkExactSubset12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	loads := make([]float64, 12)
	for i := range loads {
		loads[i] = rng.Float64() * 100
	}
	vss := mkVSs(loads...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shed(vss, 150, SubsetExact)
	}
}

// BenchmarkExactSubset16 is the largest shed SubsetAuto solves exactly:
// a capacity-rich node holding 16 virtual servers, shedding about half.
func BenchmarkExactSubset16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	loads := make([]float64, exactLimit)
	for i := range loads {
		loads[i] = rng.Float64() * 100
	}
	vss := mkVSs(loads...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shed(vss, 400, SubsetExact)
	}
}

func BenchmarkGreedySubset64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = rng.Float64() * 100
	}
	vss := mkVSs(loads...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shed(vss, 900, SubsetGreedy)
	}
}
