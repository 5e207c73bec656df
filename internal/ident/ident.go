// Package ident implements arithmetic on the circular 32-bit DHT
// identifier space used throughout the system: identifiers, clockwise
// distances, and wrap-around arcs (regions) with the split/center/cover
// operations that the Chord ring and the distributed K-nary tree rely on.
//
// The space is the ring of integers modulo 2^32. A Region is a half-open
// arc [Start, Start+Width) taken clockwise; Width is carried as a uint64 so
// that the full circle (Width == 2^32) is representable and unambiguous.
package ident

import (
	"cmp"
	"fmt"
	"hash/fnv"
)

// Bits is the width of the identifier space in bits. The paper evaluates
// on a 32-bit Chord identifier space.
const Bits = 32

// SpaceSize is the number of identifiers in the space, 2^Bits.
const SpaceSize = uint64(1) << Bits

// ID is a point on the identifier circle.
type ID uint32

// String formats the identifier as zero-padded hexadecimal.
func (a ID) String() string { return fmt.Sprintf("%08x", uint32(a)) }

// Hash maps an arbitrary byte string onto the identifier circle using
// FNV-1a. It stands in for the SHA-1-truncation DHTs use; only uniformity
// matters for the simulation.
func Hash(b []byte) ID {
	h := fnv.New32a()
	h.Write(b)
	return ID(h.Sum32())
}

// HashString is Hash for strings.
func HashString(s string) ID { return Hash([]byte(s)) }

// Dist returns the clockwise distance from a to b: the number of steps
// needed to reach b from a moving in increasing-identifier direction.
// Dist(a, a) == 0.
func (a ID) Dist(b ID) uint64 { return uint64(uint32(b) - uint32(a)) }

// Compare returns -1, 0 or +1 as a is less than, equal to or greater
// than b as plain integers. This is integer order, not ring order: it
// is the one total order for sorting, searching and merging ID-sorted
// arrays and for tiebreaks, and it says nothing about where a and b lie
// on the circle relative to each other (Dist, Between and Region do).
func Compare(a, b ID) int { return cmp.Compare(a, b) }

// Less reports whether a is less than b as plain integers: Compare's
// order as a bool, for the binary searches over ID-sorted arrays, where
// it compiles to one comparison. Like Compare it is not ring order.
func Less(a, b ID) bool { return a < b }

// Add returns a advanced clockwise by d (mod 2^32).
func (a ID) Add(d uint64) ID { return ID(uint32(a) + uint32(d)) }

// Between reports whether a lies in the half-open clockwise arc (start, end].
// This is the ownership test used by Chord: a virtual server with identifier
// s and predecessor p owns exactly the keys k with k ∈ (p, s].
// When start == end the arc is the full circle, so Between is always true.
func (a ID) Between(start, end ID) bool {
	if start == end {
		return true
	}
	return start.Dist(a) > 0 && start.Dist(a) <= start.Dist(end)
}

// Region is a half-open clockwise arc [Start, Start+Width) of the
// identifier circle. Width may be anything in [0, 2^32]; Width == SpaceSize
// means the full circle and Width == 0 the empty arc.
type Region struct {
	Start ID
	Width uint64
}

// Full returns the region covering the entire identifier space.
func Full() Region { return Region{Start: 0, Width: SpaceSize} }

// Arc returns the half-open clockwise region [start, end). If start == end
// the result is the empty region (use Full for the whole circle).
func Arc(start, end ID) Region {
	return Region{Start: start, Width: start.Dist(end)}
}

// OwnershipArc returns the region (pred, self] as a half-open arc
// [pred+1, self+1), the key range owned by a ring participant with
// identifier self whose predecessor is pred. If pred == self the
// participant is alone on the ring and owns the full circle.
func OwnershipArc(pred, self ID) Region {
	if pred == self {
		return Region{Start: self.Add(1), Width: SpaceSize}
	}
	return Region{Start: pred.Add(1), Width: pred.Dist(self)}
}

// IsEmpty reports whether the region contains no identifiers.
func (r Region) IsEmpty() bool { return r.Width == 0 }

// IsFull reports whether the region is the entire circle.
func (r Region) IsFull() bool { return r.Width == SpaceSize }

// End returns the first identifier clockwise past the region,
// i.e. Start+Width mod 2^32. For the full circle End == Start.
func (r Region) End() ID { return r.Start.Add(r.Width) }

// Contains reports whether id lies inside the region.
func (r Region) Contains(id ID) bool {
	return r.Start.Dist(id) < r.Width
}

// Covers reports whether every identifier of s also lies in r.
// The empty region is covered by everything; the full region covers
// everything.
func (r Region) Covers(s Region) bool {
	if s.IsEmpty() || r.IsFull() {
		return true
	}
	if s.Width > r.Width {
		return false
	}
	off := r.Start.Dist(s.Start)
	return off < r.Width && off+s.Width <= r.Width
}

// Overlaps reports whether r and s share at least one identifier.
func (r Region) Overlaps(s Region) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Start.Dist(s.Start) < r.Width || s.Start.Dist(r.Start) < s.Width
}

// Center returns the midpoint of the region: Start advanced by Width/2.
// This is the identifier the K-nary tree uses as the DHT key at which a
// KT node responsible for this region is planted.
func (r Region) Center() ID { return r.Start.Add(r.Width / 2) }

// Split partitions the region into k consecutive child arcs of (as near as
// possible) equal width, in clockwise order. The first Width mod k children
// are one identifier wider so the widths always sum to Width exactly.
// Children whose width would be zero are returned as empty regions so that
// the result always has exactly k elements (the K-nary tree keeps child
// slots positional).
func (r Region) Split(k int) []Region {
	if k <= 0 {
		panic("ident: Split with non-positive k")
	}
	out := make([]Region, k)
	base := r.Width / uint64(k)
	rem := r.Width % uint64(k)
	start := r.Start
	for i := 0; i < k; i++ {
		w := base
		if uint64(i) < rem {
			w++
		}
		out[i] = Region{Start: start, Width: w}
		start = start.Add(w)
	}
	return out
}

// Fraction returns the share of the whole identifier space the region
// occupies, in [0, 1].
func (r Region) Fraction() float64 {
	return float64(r.Width) / float64(SpaceSize)
}

// String formats the region as [start, end)/width.
func (r Region) String() string {
	if r.IsFull() {
		return "[full circle]"
	}
	if r.IsEmpty() {
		return fmt.Sprintf("[empty@%s]", r.Start)
	}
	return fmt.Sprintf("[%s,%s)", r.Start, r.End())
}
