package ident

import (
	"math"
	"testing"
)

// These tests pin the behaviour of Region/Split/Covers and friends at
// the exact seam raw integer arithmetic gets wrong: identifiers within
// a few steps of 0 and 2^32-1. They are the ground truth the
// identcompare analyzer (cmd/lbvet) exists to protect — every case
// here would misbehave if some caller reverted to </>/−.

const top = ID(math.MaxUint32) // 2^32 - 1, one step counterclockwise of 0

func TestDistAcrossWrap(t *testing.T) {
	if got := top.Dist(0); got != 1 {
		t.Errorf("Dist(top, 0) = %d, want 1", got)
	}
	if got := ID(0).Dist(top); got != math.MaxUint32 {
		t.Errorf("Dist(0, top) = %d, want 2^32-1", got)
	}
	if got := ID(0xFFFFFFF0).Dist(0x10); got != 0x20 {
		t.Errorf("Dist across wrap = %d, want 0x20", got)
	}
	// The raw comparison view would order these the other way around:
	// top > 0 as integers, yet 0 is top's immediate clockwise neighbor.
	if top.Add(1) != 0 {
		t.Errorf("Add(top, 1) = %s, want 0", top.Add(1))
	}
}

// TestCompareIsIntegerOrder: Compare is the plain integer order the
// sorted arrays use, so at the seam it says the opposite of Dist.
func TestCompareIsIntegerOrder(t *testing.T) {
	if got := Compare(top, 0); got != 1 {
		t.Errorf("Compare(top, 0) = %d, want 1 although 0 is top's clockwise neighbor", got)
	}
	if got := Compare(0, top); got != -1 {
		t.Errorf("Compare(0, top) = %d, want -1", got)
	}
	if got := Compare(7, 7); got != 0 {
		t.Errorf("Compare(7, 7) = %d, want 0", got)
	}
}

// TestLessIsIntegerOrder: Less is Compare's order as a bool, so it
// too says top is not less than its clockwise neighbor 0.
func TestLessIsIntegerOrder(t *testing.T) {
	for _, c := range []struct {
		a, b ID
		want bool
	}{
		{0, top, true},
		{top, 0, false},
		{top - 1, top, true},
		{top, top - 1, false},
		{0, 1, true},
		{7, 7, false},
		{top, top, false},
	} {
		if got := Less(c.a, c.b); got != c.want {
			t.Errorf("Less(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Compare(c.a, c.b) < 0; got != c.want {
			t.Errorf("Compare(%s, %s) < 0 = %v, Less says %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBetweenAcrossWrap(t *testing.T) {
	// Arc (0xFFFFFF00, 0x100] crosses zero; membership must hold on
	// both sides of the seam and fail outside it.
	start, end := ID(0xFFFFFF00), ID(0x100)
	for _, id := range []ID{0xFFFFFF01, top, 0, 1, 0x100} {
		if !id.Between(start, end) {
			t.Errorf("%s should be in (%s, %s]", id, start, end)
		}
	}
	for _, id := range []ID{start, 0x101, 0x80000000} {
		if id.Between(start, end) {
			t.Errorf("%s should not be in (%s, %s]", id, start, end)
		}
	}
}

func TestRegionContainsAcrossWrap(t *testing.T) {
	// [0xFFFFFF80, 0x80): width 0x100, straddling zero.
	r := Region{Start: 0xFFFFFF80, Width: 0x100}
	for _, id := range []ID{0xFFFFFF80, top, 0, 0x7F} {
		if !r.Contains(id) {
			t.Errorf("%s should contain %s", r, id)
		}
	}
	for _, id := range []ID{0x80, 0xFFFFFF7F, 0x80000000} {
		if r.Contains(id) {
			t.Errorf("%s should not contain %s", r, id)
		}
	}
	if got := r.End(); got != 0x80 {
		t.Errorf("End() = %s, want 00000080", got)
	}
}

func TestOwnershipArcAcrossWrap(t *testing.T) {
	// A virtual server at 0x10 whose predecessor sits just below the
	// top owns (pred, 0x10]: the tail of the space plus the head.
	pred, self := ID(0xFFFFFFF0), ID(0x10)
	arc := OwnershipArc(pred, self)
	if arc.Width != 0x20 {
		t.Errorf("width = %d, want 0x20", arc.Width)
	}
	for _, id := range []ID{0xFFFFFFF1, top, 0, self} {
		if !arc.Contains(id) {
			t.Errorf("ownership arc %s should contain %s", arc, id)
		}
	}
	if arc.Contains(pred) {
		t.Errorf("ownership arc %s should exclude the predecessor %s", arc, pred)
	}
}

func TestSplitAcrossWrap(t *testing.T) {
	// Split a zero-straddling region: children must be contiguous,
	// clockwise, sum to the parent width, and stay inside the parent —
	// including the child that itself crosses zero.
	r := Region{Start: 0xFFFFFFFD, Width: 10} // covers FFFFFFFD..00000006
	for _, k := range []int{1, 2, 3, 4, 10} {
		parts := r.Split(k)
		if len(parts) != k {
			t.Fatalf("Split(%d) returned %d parts", k, len(parts))
		}
		var sum uint64
		cursor := r.Start
		for i, p := range parts {
			if p.Start != cursor {
				t.Errorf("k=%d child %d starts at %s, want %s (contiguity across the seam)", k, i, p.Start, cursor)
			}
			if !r.Covers(p) {
				t.Errorf("k=%d child %d %s escapes parent %s", k, i, p, r)
			}
			sum += p.Width
			cursor = cursor.Add(p.Width)
		}
		if sum != r.Width {
			t.Errorf("k=%d children sum to %d, want %d", k, sum, r.Width)
		}
	}
	// k=2 splits 10 into 5+5: the first child ends exactly at zero+2,
	// the second begins there — the seam falls inside the region.
	parts := r.Split(2)
	if parts[0].End() != parts[1].Start {
		t.Errorf("children not adjacent: %s then %s", parts[0], parts[1])
	}
}

func TestCoversAcrossWrap(t *testing.T) {
	parent := Region{Start: 0xFFFFFF00, Width: 0x200} // straddles zero
	inside := []Region{
		{Start: 0xFFFFFF00, Width: 0x200}, // itself
		{Start: 0xFFFFFFC0, Width: 0x80},  // crosses the seam
		{Start: 0, Width: 0x100},          // entirely past the seam
		{Start: 0xFFFFFF80, Width: 0},     // empty is covered by all
	}
	for _, s := range inside {
		if !parent.Covers(s) {
			t.Errorf("%s should cover %s", parent, s)
		}
	}
	outside := []Region{
		{Start: 0xFFFFFF00, Width: 0x201}, // one too wide
		{Start: 0xFFFFFEFF, Width: 0x10},  // starts one short
		{Start: 0x100, Width: 1},          // starts exactly at End()
		{Start: 0x80000000, Width: 2},     // far side of the ring
	}
	for _, s := range outside {
		if parent.Covers(s) {
			t.Errorf("%s should not cover %s", parent, s)
		}
	}
}

func TestOverlapsAcrossWrap(t *testing.T) {
	a := Region{Start: 0xFFFFFFF0, Width: 0x20} // straddles zero
	overlapping := []Region{
		{Start: 0, Width: 1},             // inside a, past the seam
		{Start: 0xFFFFFFF8, Width: 4},    // inside a, before the seam
		{Start: 0xF, Width: 0x10},        // shares exactly id 0xF
		{Start: 0xFFFFFF00, Width: 0xF1}, // reaches a's first id
	}
	for _, b := range overlapping {
		if !a.Overlaps(b) || !b.Overlaps(a) {
			t.Errorf("%s and %s should overlap (both directions)", a, b)
		}
	}
	disjoint := []Region{
		{Start: 0x10, Width: 0x10},       // begins exactly at a.End()
		{Start: 0xFFFFFF00, Width: 0xF0}, // ends exactly at a.Start
	}
	for _, b := range disjoint {
		if a.Overlaps(b) || b.Overlaps(a) {
			t.Errorf("%s and %s should not overlap", a, b)
		}
	}
}

func TestCenterAcrossWrap(t *testing.T) {
	// The midpoint of a zero-straddling region lies past the seam.
	r := Region{Start: 0xFFFFFFF0, Width: 0x20}
	if got := r.Center(); got != 0 {
		t.Errorf("Center(%s) = %s, want 00000000", r, got)
	}
	r2 := Region{Start: 0xFFFFFFFE, Width: 8}
	if got := r2.Center(); got != 2 {
		t.Errorf("Center(%s) = %s, want 00000002", r2, got)
	}
}
