// Package proximity generates the proximity information the paper's
// load balancer uses to guide virtual server assignment (§4): landmark
// clustering and the mapping of landmark vectors into the DHT identifier
// space through a Hilbert space-filling curve.
//
// Every participating node measures its distance to a set of m landmark
// nodes (the paper uses m = 15), producing its landmark vector — its
// coordinates in the m-dimensional landmark space. Physically close
// nodes have similar landmark vectors. The landmark space is divided
// into 2^(m·b) grid cells (b bits of resolution per dimension) and each
// cell is numbered by an m-dimensional Hilbert curve; a node's "Hilbert
// number", scaled into the 32-bit identifier space, is the DHT key under
// which it publishes its load-balancing information. The Hilbert curve's
// locality preservation makes physically close nodes publish under
// nearby DHT keys, so their information meets at low levels of the
// K-nary tree.
package proximity

import (
	"fmt"
	"math/rand"
	"sort"

	"p2plb/internal/hilbert"
	"p2plb/internal/ident"
	"p2plb/internal/topology"
)

// DefaultLandmarkCount is the number of landmark nodes the paper uses.
const DefaultLandmarkCount = 15

// DefaultBitsPerDimension gives 2^60 grid cells with 15 landmarks. The
// paper leaves the grid resolution n open ("n controls the number of
// grids used to divide the landmark space"), noting only that smaller n
// increases exact cell collisions. Four bits per dimension separates
// stub domains well under the jittered latency metric while the full
// Hilbert number (kept as the pairing cell identity — see Cell) retains
// the resolution the truncated 32-bit key cannot carry.
const DefaultBitsPerDimension = 4

// Landmarks is a fixed set of landmark nodes with the distance oracle
// needed to measure landmark vectors.
type Landmarks struct {
	ids  []topology.NodeID
	dist *topology.Distances
	// maxDist is the largest observed distance from any landmark to any
	// node; it fixes the quantization range so every node quantizes
	// consistently.
	maxDist int32
	// minPerDim/maxPerDim are each landmark's observed distance range;
	// quantizing within the per-dimension range (instead of [0, max])
	// spreads the grid over the occupied part of the landmark space and
	// sharply reduces false clustering.
	minPerDim []int32
	maxPerDim []int32
}

// ChooseRandom picks m distinct landmark nodes uniformly at random from
// the whole underlay.
func ChooseRandom(g *topology.Graph, dist *topology.Distances, rng *rand.Rand, m int) (*Landmarks, error) {
	if m < 1 || m > g.NumNodes() {
		return nil, fmt.Errorf("proximity: cannot choose %d landmarks from %d nodes", m, g.NumNodes())
	}
	perm := rng.Perm(g.NumNodes())
	ids := make([]topology.NodeID, m)
	for i := 0; i < m; i++ {
		ids[i] = topology.NodeID(perm[i])
	}
	return newLandmarks(g, dist, ids)
}

// ChooseSpread picks m landmarks with a greedy farthest-point heuristic:
// the first is random, each next maximizes its minimum distance to the
// landmarks chosen so far. Spread landmarks discriminate locations
// better than random ones and reduce false clustering.
func ChooseSpread(g *topology.Graph, dist *topology.Distances, rng *rand.Rand, m int) (*Landmarks, error) {
	if m < 1 || m > g.NumNodes() {
		return nil, fmt.Errorf("proximity: cannot choose %d landmarks from %d nodes", m, g.NumNodes())
	}
	n := g.NumNodes()
	ids := make([]topology.NodeID, 0, m)
	first := topology.NodeID(rng.Intn(n))
	ids = append(ids, first)
	minDist := make([]int32, n)
	for v := range minDist {
		minDist[v] = dist.Between(first, topology.NodeID(v))
	}
	for len(ids) < m {
		best, bestD := topology.NodeID(-1), int32(-1)
		for v := 0; v < n; v++ {
			if minDist[v] > bestD {
				best, bestD = topology.NodeID(v), minDist[v]
			}
		}
		ids = append(ids, best)
		for v := range minDist {
			if d := dist.Between(best, topology.NodeID(v)); d < minDist[v] {
				minDist[v] = d
			}
		}
	}
	return newLandmarks(g, dist, ids)
}

func newLandmarks(g *topology.Graph, dist *topology.Distances, ids []topology.NodeID) (*Landmarks, error) {
	seen := map[topology.NodeID]bool{}
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("proximity: duplicate landmark %d", id)
		}
		seen[id] = true
	}
	l := &Landmarks{
		ids:       ids,
		dist:      dist,
		minPerDim: make([]int32, len(ids)),
		maxPerDim: make([]int32, len(ids)),
	}
	for i, id := range ids {
		min := dist.Between(id, 0)
		max := min
		for v := 0; v < g.NumNodes(); v++ {
			d := dist.Between(id, topology.NodeID(v))
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		l.minPerDim[i], l.maxPerDim[i] = min, max
		if max > l.maxDist {
			l.maxDist = max
		}
	}
	return l, nil
}

// FromIDs builds a landmark set from explicit node ids (tests,
// deterministic setups).
func FromIDs(g *topology.Graph, dist *topology.Distances, ids []topology.NodeID) (*Landmarks, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("proximity: empty landmark set")
	}
	for _, id := range ids {
		if int(id) < 0 || int(id) >= g.NumNodes() {
			return nil, fmt.Errorf("proximity: landmark %d out of range", id)
		}
	}
	cp := append([]topology.NodeID(nil), ids...)
	return newLandmarks(g, dist, cp)
}

// Count returns the number of landmarks (the landmark-space dimension).
func (l *Landmarks) Count() int { return len(l.ids) }

// IDs returns the landmark node ids. The returned slice must not be
// modified.
func (l *Landmarks) IDs() []topology.NodeID { return l.ids }

// MaxDistance returns the largest observed landmark-to-node distance.
func (l *Landmarks) MaxDistance() int32 { return l.maxDist }

// DimRange returns the observed [min, max] distance range of dimension i
// (the quantization range for that landmark).
func (l *Landmarks) DimRange(i int) (min, max int32) {
	return l.minPerDim[i], l.maxPerDim[i]
}

// Vector returns node n's landmark vector: its distance to each
// landmark, in latency units.
func (l *Landmarks) Vector(n topology.NodeID) []int32 {
	v := make([]int32, len(l.ids))
	for i, lm := range l.ids {
		v[i] = l.dist.Between(lm, n)
	}
	return v
}

// Mapper maps underlay nodes to DHT keys via landmark vectors and a
// Hilbert curve.
type Mapper struct {
	lm    *Landmarks
	curve *hilbert.Curve
	bits  int
	// edges, when non-nil, holds per-dimension quantile bucket edges:
	// edges[dim][k] is the smallest distance quantized to level k+1.
	edges [][]int32
}

// NewMapper returns a Mapper with b bits of grid resolution per
// landmark dimension. The Hilbert index (Count()·b bits) must fit in 64
// bits.
func NewMapper(lm *Landmarks, b int) (*Mapper, error) {
	curve, err := hilbert.New(lm.Count(), b)
	if err != nil {
		return nil, err
	}
	return &Mapper{lm: lm, curve: curve, bits: b}, nil
}

// UseQuantileGrid switches the mapper from equal-size grid cells to
// equal-mass cells: per dimension, bucket edges are placed at the
// quantiles of the sample's distance distribution, so each of the
// 2^bits levels holds roughly the same number of sample nodes. This
// spreads the occupied cells over the whole Hilbert curve (and hence
// over the whole identifier space), which keeps rendezvous pools
// physically pure; with the paper's equal-size grids most of the
// population shares a handful of cells. The sample should be
// representative of the participating nodes (all overlay members here).
func (m *Mapper) UseQuantileGrid(sample []topology.NodeID) error {
	if len(sample) == 0 {
		return fmt.Errorf("proximity: empty quantile sample")
	}
	levels := 1 << uint(m.bits)
	m.edges = make([][]int32, m.lm.Count())
	dists := make([]int32, len(sample))
	for dim, lmID := range m.lm.ids {
		for i, n := range sample {
			dists[i] = m.lm.dist.Between(lmID, n)
		}
		sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
		edges := make([]int32, levels-1)
		for k := 1; k < levels; k++ {
			edges[k-1] = dists[k*len(dists)/levels]
		}
		m.edges[dim] = edges
	}
	return nil
}

// Quantize maps one raw landmark distance in dimension dim into a grid
// coordinate in [0, 2^bits). By default the dimension's occupied range
// [min, max] is divided into 2^bits equal-size cells; after
// UseQuantileGrid, cells hold equal sample mass instead.
func (m *Mapper) Quantize(dim int, d int32) uint32 {
	if m.edges != nil {
		edges := m.edges[dim]
		// First level whose edge exceeds d.
		q := sort.Search(len(edges), func(i int) bool { return edges[i] > d })
		return uint32(q)
	}
	levels := uint32(1) << uint(m.bits)
	lo, hi := m.lm.minPerDim[dim], m.lm.maxPerDim[dim]
	if d < lo {
		d = lo
	}
	if hi <= lo {
		return 0
	}
	q := uint64(d-lo) * uint64(levels) / uint64(hi-lo+1)
	if q >= uint64(levels) {
		q = uint64(levels) - 1
	}
	return uint32(q)
}

// GridCoords returns node n's quantized landmark-space grid cell.
func (m *Mapper) GridCoords(n topology.NodeID) []uint32 {
	raw := m.lm.Vector(n)
	coords := make([]uint32, len(raw))
	for i, d := range raw {
		coords[i] = m.Quantize(i, d)
	}
	return coords
}

// HilbertNumber returns node n's Hilbert number: the curve index of its
// landmark-space grid cell.
func (m *Mapper) HilbertNumber(n topology.NodeID) uint64 {
	return m.curve.Encode(m.GridCoords(n))
}

// Cell returns the full-resolution proximity cell identity (the
// untruncated Hilbert number). It refines Key: nodes with equal cells
// have equal keys.
func (m *Mapper) Cell(n topology.NodeID) uint64 { return m.HilbertNumber(n) }

// Key returns node n's DHT key: its Hilbert number scaled into the
// 32-bit identifier space (order-preserving, so Hilbert locality carries
// over to the ring).
func (m *Mapper) Key(n topology.NodeID) ident.ID {
	h := m.HilbertNumber(n)
	idxBits := m.curve.IndexBits()
	if idxBits >= ident.Bits {
		return ident.ID(h >> uint(idxBits-ident.Bits))
	}
	return ident.ID(h << uint(ident.Bits-idxBits))
}
