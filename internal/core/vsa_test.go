package core

import (
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
)

func mkNode(idx int) *chord.Node {
	return &chord.Node{Index: idx, Alive: true}
}

func mkLists(deficits []float64, loads []float64) *vsaLists {
	v := &vsaLists{}
	for i, d := range deficits {
		v.lights = append(v.lights, lightEntry{deficit: d, node: mkNode(i)})
	}
	for i, l := range loads {
		v.offers = append(v.offers, offerEntry{
			load: l,
			vs:   &chord.VServer{ID: ident.ID(1000 + i), Load: l},
			node: mkNode(100 + i),
		})
	}
	v.sort()
	return v
}

func TestPairAllBestFit(t *testing.T) {
	// Offers 8, 5; lights 6, 9, 20.
	// Heaviest offer 8 → best fit is 9 (smallest deficit >= 8).
	// Next offer 5 → best fit is 6.
	v := mkLists([]float64{6, 9, 20}, []float64{8, 5})
	pairs := v.pairAll(1, nil)
	if len(pairs) != 2 {
		t.Fatalf("paired %d, want 2", len(pairs))
	}
	if pairs[0].Load != 8 {
		t.Errorf("first pairing should take the heaviest offer, got %v", pairs[0].Load)
	}
	if len(v.offers) != 0 {
		t.Errorf("offers left: %d", len(v.offers))
	}
	// Lights left: 20, plus residuals 9-8=1 (>=Lmin) and 6-5=1.
	if len(v.lights) != 3 {
		t.Errorf("lights left: %d, want 3 (one untouched + two residuals)", len(v.lights))
	}
}

func TestPairAllResidualBelowLmin(t *testing.T) {
	// Light 10 takes offer 9, residual 1 < Lmin 2 → no re-insert.
	v := mkLists([]float64{10}, []float64{9})
	pairs := v.pairAll(2, nil)
	if len(pairs) != 1 {
		t.Fatalf("paired %d", len(pairs))
	}
	if len(v.lights) != 0 {
		t.Fatalf("residual below Lmin must not re-insert, lights=%v", v.lights)
	}
}

func TestPairAllResidualReinserted(t *testing.T) {
	// Light 10 takes offer 3, residual 7 >= Lmin 2 → re-insert; then the
	// residual absorbs offer 2 as well.
	v := mkLists([]float64{10}, []float64{3, 2})
	pairs := v.pairAll(2, nil)
	if len(pairs) != 2 {
		t.Fatalf("paired %d, want 2 (residual reused)", len(pairs))
	}
	if pairs[0].To != pairs[1].To {
		t.Error("both offers should land on the same light node via residual")
	}
	// Final residual 10-3-2 = 5 >= 2 → still listed.
	if len(v.lights) != 1 || v.lights[0].deficit != 5 {
		t.Fatalf("final lights = %+v", v.lights)
	}
}

func TestPairAllUnpairedPropagate(t *testing.T) {
	// Offer 50 fits nobody; offer 4 fits light 5.
	v := mkLists([]float64{5}, []float64{50, 4})
	pairs := v.pairAll(1, nil)
	if len(pairs) != 1 || pairs[0].Load != 4 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if len(v.offers) != 1 || v.offers[0].load != 50 {
		t.Fatalf("unpaired offers = %+v", v.offers)
	}
}

func TestPairAllEmptyLists(t *testing.T) {
	v := mkLists(nil, nil)
	if pairs := v.pairAll(1, nil); len(pairs) != 0 {
		t.Fatal("empty lists should pair nothing")
	}
	v = mkLists([]float64{3, 4}, nil)
	if pairs := v.pairAll(1, nil); len(pairs) != 0 || len(v.lights) != 2 {
		t.Fatal("no offers: lights must remain")
	}
	v = mkLists(nil, []float64{3, 4})
	if pairs := v.pairAll(1, nil); len(pairs) != 0 || len(v.offers) != 2 {
		t.Fatal("no lights: offers must remain")
	}
}

func TestPairAllKeepsOffersSorted(t *testing.T) {
	v := mkLists([]float64{1}, []float64{9, 7, 5, 3})
	v.pairAll(1, nil)
	for i := 1; i < len(v.offers); i++ {
		if v.offers[i].load < v.offers[i-1].load {
			t.Fatalf("offers no longer ascending: %+v", v.offers)
		}
	}
}

func TestPairAllExactFit(t *testing.T) {
	// Deficit exactly equals load: pair, residual 0, never re-inserted.
	v := mkLists([]float64{7}, []float64{7})
	pairs := v.pairAll(0, nil)
	if len(pairs) != 1 || len(v.lights) != 0 || len(v.offers) != 0 {
		t.Fatalf("exact fit mishandled: pairs=%d lights=%d offers=%d",
			len(pairs), len(v.lights), len(v.offers))
	}
}

func TestInsertLightKeepsOrder(t *testing.T) {
	v := mkLists([]float64{2, 8}, nil)
	v.insertLight(lightEntry{deficit: 5, node: mkNode(9)})
	v.insertLight(lightEntry{deficit: 1, node: mkNode(10)})
	v.insertLight(lightEntry{deficit: 99, node: mkNode(11)})
	want := []float64{1, 2, 5, 8, 99}
	for i, w := range want {
		if v.lights[i].deficit != w {
			t.Fatalf("lights order: %+v", v.lights)
		}
	}
}

// TestResidualKeepsCell: a light node's residual deficit stays in the
// cell it was published under. Cell 10 pairs locally (deficit 10 takes
// load 4, leaving 6); cell 12's offer then pools, and the residual, two
// cells away, is nearer than the cell-3 light nine away. Filed under
// cell 0, the residual would look twelve away and lose.
func TestResidualKeepsCell(t *testing.T) {
	pl := &PairList{}
	near, far := mkNode(1), mkNode(2)
	pl.AddLight(10, near, 10)
	pl.AddOffer(&chord.VServer{ID: 1, Load: 4}, mkNode(100), 10)
	pl.AddLight(7, far, 3)
	pooled := &chord.VServer{ID: 2, Load: 5}
	pl.AddOffer(pooled, mkNode(101), 12)
	pairs := pl.Pair(1)
	if len(pairs) != 2 || pairs[1].VS != pooled {
		t.Fatalf("pairs = %s, want the cell-10 pair then the pooled one", pairsString(pairs))
	}
	if pairs[1].To != near {
		t.Errorf("pooled offer went to node %d, want the residual of node %d in the nearer cell", pairs[1].To.Index, near.Index)
	}
	lights, _ := pl.Entries()
	if len(lights) != 2 || lights[0].Node != near || lights[0].Group != 10 {
		t.Errorf("leftover lights = %+v, want node %d's residual 1 still in cell 10 first", lights, near.Index)
	}
}

func TestMergeAndSize(t *testing.T) {
	a := mkLists([]float64{1}, []float64{2, 3})
	b := mkLists([]float64{4, 5}, []float64{6})
	a.merge(*b)
	if a.size() != 6 {
		t.Fatalf("size = %d, want 6", a.size())
	}
}

func TestLBIMerge(t *testing.T) {
	a := LBI{L: 10, C: 5, Lmin: 2, ok: true}
	b := LBI{L: 20, C: 15, Lmin: 1, ok: true}
	m := a.Merge(b)
	if m.L != 30 || m.C != 20 || m.Lmin != 1 || !m.Valid() {
		t.Fatalf("merge = %+v", m)
	}
	// Identity element.
	if got := (LBI{}).Merge(a); got != a {
		t.Fatalf("zero merge = %+v", got)
	}
	if got := a.Merge(LBI{}); got != a {
		t.Fatalf("merge zero = %+v", got)
	}
	if (LBI{}).Valid() {
		t.Fatal("zero LBI should be invalid")
	}
	// Commutative.
	if x, y := a.Merge(b), b.Merge(a); x != y {
		t.Fatal("merge not commutative")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Epsilon: -0.1}).Validate(); err == nil {
		t.Error("negative epsilon should fail")
	}
	if err := (Config{Mode: ProximityAware}).Validate(); err == nil {
		t.Error("aware mode without mapper should fail")
	}
	if err := (Config{Mode: Mode(7)}).Validate(); err == nil {
		t.Error("unknown mode should fail")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

// TestThresholdDefault pins the rendezvous rule's threshold
// convention: zero means DefaultRendezvousThreshold, a positive value
// is taken as given, and a negative one pairs only at the root.
func TestThresholdDefault(t *testing.T) {
	// entries returns a list of n offers and n fitting lights: 2n
	// entries, every one pairable.
	entries := func(n int) *PairList {
		pl := &PairList{}
		for i := 0; i < n; i++ {
			pl.AddOffer(&chord.VServer{ID: ident.ID(i), Load: 4}, mkNode(100+i), 0)
			pl.AddLight(5, mkNode(i), 0)
		}
		return pl
	}
	half := DefaultRendezvousThreshold / 2
	if pairs := entries(half-1).Rendezvous(false, 0, 0.1); pairs != nil {
		t.Errorf("zero threshold paired %d entries, below the default %d", 2*(half-1), DefaultRendezvousThreshold)
	}
	if pairs := entries(half).Rendezvous(false, 0, 0.1); len(pairs) != half {
		t.Errorf("zero threshold paired %d at the default size, want %d", len(pairs), half)
	}
	if pairs := entries(3).Rendezvous(false, 5, 0.1); len(pairs) != 3 {
		t.Errorf("explicit threshold 5 paired %d of 6 entries, want 3", len(pairs))
	}
	if pairs := entries(half).Rendezvous(false, -1, 0.1); pairs != nil {
		t.Error("negative (root-only) threshold paired below the root")
	}
	if pairs := entries(1).Rendezvous(true, -1, 0.1); len(pairs) != 1 {
		t.Error("the root did not pair under a negative threshold")
	}
	if pairs := (&PairList{}).Rendezvous(true, 0, 0.1); pairs != nil {
		t.Error("an empty root list paired")
	}
}

func TestStringers(t *testing.T) {
	if ProximityAware.String() != "proximity-aware" || ProximityIgnorant.String() != "proximity-ignorant" {
		t.Error("mode strings wrong")
	}
	if Heavy.String() != "heavy" || Light.String() != "light" || Neutral.String() != "neutral" {
		t.Error("class strings wrong")
	}
}
