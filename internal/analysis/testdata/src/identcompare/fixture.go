// Fixture for the identcompare analyzer.
package identcompare

import (
	"cmp"

	"p2plb/internal/ident"
)

// badLess orders identifiers with <, which inverts across the wrap.
func badLess(a, b ident.ID) bool {
	return a < b // want "wraps incorrectly"
}

// badGreaterEq mixes an ID with a converted bound.
func badGreaterEq(a ident.ID) bool {
	return a >= ident.ID(100) // want "wraps incorrectly"
}

// badSub computes a raw difference instead of a clockwise distance.
func badSub(a, b ident.ID) ident.ID {
	return a - b // want "wraps incorrectly"
}

// goodDist uses the wrap-aware clockwise distance.
func goodDist(a, b ident.ID) uint64 { return a.Dist(b) }

// goodBetween uses the wrap-aware arc-membership test.
func goodBetween(a, s, e ident.ID) bool { return a.Between(s, e) }

// goodEqual: equality carries no order and is always safe.
func goodEqual(a, b ident.ID) bool { return a == b }

// goodUint64 compares plain integers, not IDs.
func goodUint64(a, b uint64) bool { return a < b }

// badCmpCompare orders IDs through cmp.Compare, which reads the same
// as ring order at the call site.
func badCmpCompare(a, b ident.ID) int {
	return cmp.Compare(a, b) // want "cmp.Compare on ident.ID"
}

// badCmpLess likewise through cmp.Less.
func badCmpLess(a, b ident.ID) bool {
	return cmp.Less(a, b) // want "cmp.Less on ident.ID"
}

// goodIdentCompare names the integer order it uses.
func goodIdentCompare(a, b ident.ID) int { return ident.Compare(a, b) }

// goodIdentLess names it too, as a bool.
func goodIdentLess(a, b ident.ID) bool { return ident.Less(a, b) }

// goodCmpPlain compares plain integers.
func goodCmpPlain(a, b uint64) int { return cmp.Compare(a, b) }

// sortKey is a deliberate, annotated total-order use: suppressed.
func sortKey(a, b ident.ID) bool {
	return a < b //lbvet:ignore identcompare canonical total order for sorting, not ring arithmetic
}
