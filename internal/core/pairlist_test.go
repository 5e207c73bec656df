package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/sim"
)

// buildPairList constructs a PairList from raw deficit/load values.
func buildPairList(deficits, loads []float64, groups []uint64) (*PairList, float64, float64) {
	pl := &PairList{}
	var totalDeficit, totalOffer float64
	for i, d := range deficits {
		pl.AddLight(d, &chord.Node{Index: i, Alive: true}, groupAt(groups, i))
		totalDeficit += d
	}
	for i, l := range loads {
		vs := &chord.VServer{ID: ident.ID(10000 + i), Load: l}
		pl.AddOffer(vs, &chord.Node{Index: 1000 + i, Alive: true}, groupAt(groups, i))
		totalOffer += l
	}
	return pl, totalDeficit, totalOffer
}

func groupAt(groups []uint64, i int) uint64 {
	if len(groups) == 0 {
		return 0
	}
	return groups[i%len(groups)]
}

// TestPairListConservation checks the fundamental pairing invariants on
// random instances:
//  1. every offer is either paired or still held (none vanish);
//  2. a paired offer's load never exceeds the deficit of the light node
//     it was assigned to at assignment time — equivalently, the total
//     load assigned to any one light node never exceeds its deficit;
//  3. unpaired offers genuinely fit no remaining light node.
func TestPairListConservation(t *testing.T) {
	f := func(rawDeficits, rawLoads []uint16, rawGroups []uint64, lminRaw uint8) bool {
		deficits := make([]float64, 0, len(rawDeficits))
		for _, d := range rawDeficits {
			deficits = append(deficits, float64(d%1000))
		}
		loads := make([]float64, 0, len(rawLoads))
		for _, l := range rawLoads {
			loads = append(loads, float64(l%500)+1)
		}
		groups := make([]uint64, len(rawGroups))
		for i, g := range rawGroups {
			groups[i] = g % 4 // few groups so grouping actually kicks in
		}
		lmin := float64(lminRaw % 16)

		pl, _, totalOffer := buildPairList(deficits, loads, groups)
		offersBefore := pl.Offers()
		pairs := pl.Pair(lmin)

		// (1) conservation of offers.
		if len(pairs)+pl.Offers() != offersBefore {
			return false
		}
		// (2) per-light assigned load <= original deficit.
		assigned := map[int]float64{}
		for _, p := range pairs {
			assigned[p.To.Index] += p.Load
		}
		for idx, sum := range assigned {
			if idx >= len(deficits) || sum > deficits[idx]+1e-9 {
				return false
			}
		}
		// Moved load accounted exactly.
		var movedSum float64
		for _, p := range pairs {
			movedSum += p.Load
		}
		if movedSum+pl.OfferLoad() > totalOffer+1e-6 ||
			movedSum+pl.OfferLoad() < totalOffer-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPairListUnpairedTrulyUnfit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nd, nl := rng.Intn(20), rng.Intn(20)
		deficits := make([]float64, nd)
		for i := range deficits {
			deficits[i] = rng.Float64() * 100
		}
		loads := make([]float64, nl)
		for i := range loads {
			loads[i] = rng.Float64()*150 + 1
		}
		pl, _, _ := buildPairList(deficits, loads, nil)
		lmin := rng.Float64() * 10
		pairs := pl.Pair(lmin)
		_ = pairs
		// After pairing completes, no remaining offer can fit any
		// remaining light's deficit — otherwise "no more appropriate
		// VSA can be achieved" would be false.
		remOffers := pl.Offers()
		remLights := pl.Lights()
		if remOffers == 0 || remLights == 0 {
			continue
		}
		// Re-pair must produce nothing new.
		if extra := pl.Pair(lmin); len(extra) != 0 {
			t.Fatalf("trial %d: second Pair produced %d extra pairs — first pass incomplete",
				trial, len(extra))
		}
	}
}

func TestPairListMergePreservesEntries(t *testing.T) {
	a, _, _ := buildPairList([]float64{5, 10}, []float64{3}, nil)
	b, _, _ := buildPairList([]float64{7}, []float64{4, 8}, nil)
	a.Merge(b)
	if a.Lights() != 3 || a.Offers() != 3 || a.Size() != 6 {
		t.Fatalf("merge lost entries: %d lights, %d offers", a.Lights(), a.Offers())
	}
	if a.OfferLoad() != 15 {
		t.Fatalf("OfferLoad = %v, want 15", a.OfferLoad())
	}
}

func TestPairListGroupingPrefersLocal(t *testing.T) {
	// Two cells: each with one offer and one fitting light. Grouped
	// pairing must match within cells even when the cross-cell match
	// would be the global best fit.
	pl := &PairList{}
	lightA := &chord.Node{Index: 1, Alive: true}
	lightB := &chord.Node{Index: 2, Alive: true}
	// Cell 1: offer load 10, light deficit 50 (loose fit).
	// Cell 2: offer load 40, light deficit 41 (tight fit).
	vs1 := &chord.VServer{ID: 100, Load: 10}
	vs2 := &chord.VServer{ID: 200, Load: 40}
	pl.AddLight(50, lightA, 1)
	pl.AddOffer(vs1, &chord.Node{Index: 3, Alive: true}, 1)
	pl.AddLight(41, lightB, 2)
	pl.AddOffer(vs2, &chord.Node{Index: 4, Alive: true}, 2)
	pairs := pl.Pair(1)
	if len(pairs) != 2 {
		t.Fatalf("paired %d, want 2", len(pairs))
	}
	for _, p := range pairs {
		if p.VS == vs1 && p.To != lightA {
			t.Error("cell-1 offer left its cell (global best-fit would pick deficit 41)")
		}
		if p.VS == vs2 && p.To != lightB {
			t.Error("cell-2 offer left its cell")
		}
	}
}

func TestNodeLBIExported(t *testing.T) {
	n := &chord.Node{Capacity: 50, Alive: true}
	lbi := NodeLBI(n)
	if !lbi.Valid() || lbi.C != 50 || lbi.L != 0 {
		t.Fatalf("VS-less NodeLBI = %+v", lbi)
	}
}

func TestClassifyNodeExported(t *testing.T) {
	n := &chord.Node{Capacity: 10, Alive: true}
	global := LBI{L: 100, C: 100, Lmin: 1, ok: true}
	st := ClassifyNode(n, global, 0, SubsetAuto)
	if st.Class != Light || st.Deficit != 10 {
		t.Fatalf("VS-less node should be maximally light: %+v", st)
	}
}

func TestDepositVSA(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	offers := []*chord.VServer{
		{Owner: heavy, Load: 3},
		{Owner: heavy, Load: 4},
	}
	pl := &PairList{}
	pl.Deposit(&NodeState{Node: heavy, Class: Heavy, Offers: offers}, 0)
	if pl.Offers() != 2 || pl.OfferLoad() != 7 {
		t.Fatalf("heavy deposit: %d offers, load %.1f; want 2, 7", pl.Offers(), pl.OfferLoad())
	}
	light := &chord.Node{Index: 1, Alive: true}
	pl.Deposit(&NodeState{Node: light, Class: Light, Deficit: 5}, 0)
	if pl.Lights() != 1 {
		t.Fatalf("light deposit: %d lights, want 1", pl.Lights())
	}
	pl.Deposit(&NodeState{Node: light, Class: Neutral}, 0)
	if pl.Size() != 3 {
		t.Fatalf("neutral deposit changed the list: size %d, want 3", pl.Size())
	}
}

// TestCensus checks the census against ClassifyNode node by node: same
// rule, dead nodes skipped, and the shed-subset strategy cannot change
// a class.
func TestCensus(t *testing.T) {
	global := LBI{L: 100, C: 100, Lmin: 1, ok: true} // fair share 1 per unit capacity
	ring := chord.NewRing(sim.NewEngine(1), chord.Config{})
	next := ident.ID(1)
	mk := func(capacity float64, loads ...float64) *chord.Node {
		ids := make([]ident.ID, len(loads))
		for i := range ids {
			ids[i], next = next, next+1000
		}
		n, err := ring.AddNodeWithIDs(-1, capacity, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, vs := range n.VServers() {
			vs.Load = loads[i]
		}
		return n
	}
	nodes := []*chord.Node{
		mk(10, 30),                  // heavy
		mk(10, 5),                   // light: deficit 5
		mk(10, 9.5),                 // neutral: deficit 0.5 < Lmin
		{Capacity: 10, Alive: true}, // light: no virtual servers
		mk(10, 2, 2),                // light
	}
	nodes = append(nodes, &chord.Node{Capacity: 10}) // dead: not counted
	h, l, n := Census(nodes, global, 0)
	if h != 1 || l != 3 || n != 1 {
		t.Fatalf("Census = %d/%d/%d, want 1/3/1", h, l, n)
	}
	var want [3]int
	for _, nd := range nodes[:5] {
		want[ClassifyNode(nd, global, 0, SubsetExact).Class]++
	}
	if want != [3]int{n, h, l} {
		t.Errorf("ClassifyNode tallies %v, Census %d/%d/%d", want, n, h, l)
	}
}

// randomEntries draws one rendezvous point's advertisements: 1–4 cells
// (cell 0 in about half the draws), integral deficits and loads from a
// narrow range so that ties are common and residuals land at, below and
// above lmin. Light i is node nextLight+i, so indexes stay unique
// across the calls of one trial.
func randomEntries(rng *rand.Rand, nextLight, nextOffer int) ([]lightEntry, []offerEntry) {
	cells := make([]uint64, 1+rng.Intn(4))
	for i := range cells {
		cells[i] = uint64(rng.Intn(64))
	}
	if rng.Intn(2) == 0 {
		cells[0] = 0
	}
	lights := make([]lightEntry, rng.Intn(12))
	for i := range lights {
		lights[i] = lightEntry{
			deficit: float64(1 + rng.Intn(12)),
			node:    &chord.Node{Index: nextLight + i, Alive: true},
			group:   cells[rng.Intn(len(cells))],
		}
	}
	offers := make([]offerEntry, rng.Intn(12))
	for i := range offers {
		load := float64(1 + rng.Intn(8))
		offers[i] = offerEntry{
			load:  load,
			vs:    &chord.VServer{ID: ident.ID(nextOffer + i), Load: load},
			node:  &chord.Node{Index: 100000 + rng.Intn(16), Alive: true},
			group: cells[rng.Intn(len(cells))],
		}
	}
	return lights, offers
}

// TestPairMatchesReference holds PairList.Pair to the reference rule
// (pairref_test.go): the same pairs in the same order and the same
// leftover lists, on random lists and again on a parent that merges
// two children's leftovers with entries of its own — lists that hold
// residual deficits from an earlier pairing.
func TestPairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		lmin := float64(rng.Intn(4))
		var pl PairList
		var ref refLists
		nextLight, nextOffer := 0, 0
		for level := 0; level < 3; level++ {
			lights, offers := randomEntries(rng, nextLight, nextOffer)
			nextLight += len(lights)
			nextOffer += len(offers)
			pl.lists.lights = append(pl.lists.lights, lights...)
			pl.lists.offers = append(pl.lists.offers, offers...)
			ref.lights = append(ref.lights, lights...)
			ref.offers = append(ref.offers, offers...)
			got, want := pl.Pair(lmin), ref.refPair(lmin)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d level %d: pairs differ\ngot  %s\nwant %s", trial, level, pairsString(got), pairsString(want))
			}
			if !slices.Equal(pl.lists.lights, ref.lights) || !slices.Equal(pl.lists.offers, ref.offers) {
				t.Fatalf("trial %d level %d: leftovers differ\ngot  %v %v\nwant %v %v",
					trial, level, pl.lists.lights, pl.lists.offers, ref.lights, ref.offers)
			}
		}
	}
}

// pairsString renders pairs as vs:from->to(load).
func pairsString(ps []Pair) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, " %d:%d->%d(%g)", p.VS.ID, p.From.Index, p.To.Index, p.Load)
	}
	return sb.String()
}

// TestPairOneCellAllocatesOnlyResult: pairing a list whose entries
// share one cell allocates nothing but the returned pairs.
func TestPairOneCellAllocatesOnlyResult(t *testing.T) {
	for _, cell := range []uint64{0, 7} {
		var lights []lightEntry
		var offers []offerEntry
		for i := 0; i < 64; i++ {
			lights = append(lights, lightEntry{deficit: float64(1 + i%13), node: mkNode(i), group: cell})
			load := float64(1 + i%5)
			offers = append(offers, offerEntry{load: load, vs: &chord.VServer{ID: ident.ID(i), Load: load}, node: mkNode(1000 + i), group: cell})
		}
		var pl PairList
		allocs := testing.AllocsPerRun(50, func() {
			pl.lists.lights = append(pl.lists.lights[:0], lights...)
			pl.lists.offers = append(pl.lists.offers[:0], offers...)
			if len(pl.Pair(1)) == 0 {
				t.Fatal("nothing paired")
			}
		})
		if allocs != 1 {
			t.Errorf("cell %d: Pair made %v allocations, want 1 (the returned pairs)", cell, allocs)
		}
	}
}

// TestPairInPlaceOnView: the sweep pairs a KT node's list where it lies,
// as a view of the top of its walk's entry stack. Rendezvous on a view
// of a larger backing array must leave the unpaired entries at the
// view's front in that array, write nothing outside the view, and emit
// the pairs and leftovers that Rendezvous gives on a fresh copy.
func TestPairInPlaceOnView(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch []Pair
	for trial := 0; trial < 3000; trial++ {
		lmin := float64(rng.Intn(4))
		threshold := []int{0, 2, -1}[rng.Intn(3)]
		isRoot := rng.Intn(2) == 0
		preL, preO := randomEntries(rng, 0, 0)
		viewL, viewO := randomEntries(rng, 100, 100)
		postL, postO := randomEntries(rng, 200, 200)
		lights := slices.Concat(preL, viewL, postL)
		offers := slices.Concat(preO, viewO, postO)
		before, beforeO := slices.Clone(lights), slices.Clone(offers)

		view := PairList{lists: vsaLists{
			lights: lights[len(preL) : len(preL)+len(viewL)],
			offers: offers[len(preO) : len(preO)+len(viewO)],
		}}
		fresh := PairList{lists: vsaLists{lights: slices.Clone(viewL), offers: slices.Clone(viewO)}}
		scratch = view.rendezvous(isRoot, threshold, lmin, scratch[:0])
		want := fresh.Rendezvous(isRoot, threshold, lmin)

		name := fmt.Sprintf("trial %d (root %v, threshold %d, lmin %v)", trial, isRoot, threshold, lmin)
		if !slices.Equal(scratch, want) {
			t.Fatalf("%s: pairs differ\ngot  %s\nwant %s", name, pairsString(scratch), pairsString(want))
		}
		if !slices.Equal(view.lists.lights, fresh.lists.lights) || !slices.Equal(view.lists.offers, fresh.lists.offers) {
			t.Fatalf("%s: leftovers differ\ngot  %v %v\nwant %v %v", name,
				view.lists.lights, view.lists.offers, fresh.lists.lights, fresh.lists.offers)
		}
		if len(view.lists.lights) > 0 && &view.lists.lights[0] != &lights[len(preL)] ||
			len(view.lists.offers) > 0 && &view.lists.offers[0] != &offers[len(preO)] {
			t.Fatalf("%s: the leftovers moved off the backing array", name)
		}
		vl, vo := len(preL)+len(viewL), len(preO)+len(viewO)
		if !slices.Equal(lights[:len(preL)], before[:len(preL)]) || !slices.Equal(lights[vl:], before[vl:]) ||
			!slices.Equal(offers[:len(preO)], beforeO[:len(preO)]) || !slices.Equal(offers[vo:], beforeO[vo:]) {
			t.Fatalf("%s: pairing wrote outside its view", name)
		}
	}
}
