// Package topology generates GT-ITM-style transit-stub network topologies
// and answers shortest-path distance queries over them.
//
// The paper evaluates proximity-aware load balancing on two ~5000-node
// transit-stub topologies produced by GT-ITM:
//
//   - "ts5k-large": 5 transit domains, 3 transit nodes per transit domain,
//     5 stub domains attached to each transit node, and 60 nodes per stub
//     domain on average — an overlay drawn from a few big stub domains.
//   - "ts5k-small": 120 transit domains, 5 transit nodes per transit
//     domain, 4 stub domains per transit node, 2 nodes per stub domain on
//     average — an overlay scattered across the entire Internet.
//
// Following the paper, each interdomain edge costs 3 latency units and
// each intradomain edge costs 1.
package topology

import (
	"fmt"
	"math/rand"
)

// NodeID identifies an underlay node.
type NodeID int32

// Kind distinguishes transit from stub nodes.
type Kind uint8

// Node kinds.
const (
	Transit Kind = iota
	Stub
)

func (k Kind) String() string {
	if k == Transit {
		return "transit"
	}
	return "stub"
}

// Weights of the two edge classes in the paper's hop-count convention:
// an interdomain hop counts as 3 units, an intradomain hop as 1. All
// reported transfer distances (Figures 7 and 8) use this metric.
const (
	IntraDomainWeight = 1
	InterDomainWeight = 3
)

// Mean link latencies in milli-units for the two edge classes:
// latency ~ U[0.5, 1.5]·Mean. GT-ITM graphs carry random per-link
// latencies; the landmark measurements (and message timing) use this
// jittered latency metric, while the figures report the deterministic
// hop metric above. The intra/inter ratio is LAN-vs-WAN realistic
// (~1:15), unlike the 3:1 hop-reporting convention.
const (
	IntraDomainLatencyMean = 20
	InterDomainLatencyMean = 300
)

// Node carries a topology node's classification.
type Node struct {
	Kind   Kind
	Domain int // globally unique domain index (transit and stub domains share the numbering)
}

// Edge is one adjacency entry.
type Edge struct {
	To NodeID
	// Weight is the hop-convention distance (1 intra, 3 interdomain).
	Weight int32
	// Latency is the link's latency in milli-units, randomly jittered
	// around Weight·LatencyScale.
	Latency int32
}

// Graph is an undirected weighted transit-stub topology.
type Graph struct {
	nodes   []Node
	adj     [][]Edge
	domains int
	stubs   []NodeID // all stub node ids, ascending
	edges   int
	genRand *rand.Rand // generation-time RNG (latency jitter)
}

// Params configures transit-stub generation.
type Params struct {
	TransitDomains        int     // number of transit domains
	TransitNodesPerDomain int     // transit nodes per transit domain
	StubsPerTransitNode   int     // stub domains attached to each transit node
	StubDomainSizeMean    int     // average nodes per stub domain
	TransitEdgeProb       float64 // extra intra-transit-domain edge probability
	TransitDomainEdgeProb float64 // extra transit-domain interconnection probability (per domain pair)
	StubEdgeProb          float64 // extra intra-stub-domain edge probability
	Seed                  int64   // RNG seed; same Params ⇒ same graph
}

// TS5kLarge returns the "ts5k-large" parameters from the paper with the
// given seed (the paper uses 10 graph instances per topology; vary the
// seed to get them).
func TS5kLarge(seed int64) Params {
	return Params{
		TransitDomains:        5,
		TransitNodesPerDomain: 3,
		StubsPerTransitNode:   5,
		StubDomainSizeMean:    60,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.42,
		Seed:                  seed,
	}
}

// TS5kSmall returns the "ts5k-small" parameters from the paper.
func TS5kSmall(seed int64) Params {
	return Params{
		TransitDomains:        120,
		TransitNodesPerDomain: 5,
		StubsPerTransitNode:   4,
		StubDomainSizeMean:    2,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.02,
		StubEdgeProb:          0.42,
		Seed:                  seed,
	}
}

// Validate reports whether the parameters can produce a graph.
func (p Params) Validate() error {
	switch {
	case p.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains %d < 1", p.TransitDomains)
	case p.TransitNodesPerDomain < 1:
		return fmt.Errorf("topology: TransitNodesPerDomain %d < 1", p.TransitNodesPerDomain)
	case p.StubsPerTransitNode < 0:
		return fmt.Errorf("topology: StubsPerTransitNode %d < 0", p.StubsPerTransitNode)
	case p.StubDomainSizeMean < 1 && p.StubsPerTransitNode > 0:
		return fmt.Errorf("topology: StubDomainSizeMean %d < 1", p.StubDomainSizeMean)
	}
	for _, pr := range []float64{p.TransitEdgeProb, p.TransitDomainEdgeProb, p.StubEdgeProb} {
		if pr < 0 || pr > 1 {
			return fmt.Errorf("topology: edge probability %v outside [0,1]", pr)
		}
	}
	return nil
}

// Generate builds the transit-stub graph described by p. The result is
// always connected. Generation is deterministic in p (including Seed).
//
// The transit nodes take IDs [0, T); each stub domain follows as one
// contiguous ID run and hangs from its transit node by exactly one edge.
// Distances relies on that single attachment: no shortest path enters a
// stub domain it neither starts nor ends in.
func Generate(p Params) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &Graph{genRand: rand.New(rand.NewSource(p.Seed ^ 0x5DEECE66D))}

	// Transit nodes first: domain d owns nodes [d*TN, (d+1)*TN).
	tn := p.TransitNodesPerDomain
	for d := 0; d < p.TransitDomains; d++ {
		for i := 0; i < tn; i++ {
			g.nodes = append(g.nodes, Node{Kind: Transit, Domain: d})
		}
	}
	g.domains = p.TransitDomains
	g.adj = make([][]Edge, len(g.nodes))

	transitOf := func(d, i int) NodeID { return NodeID(d*tn + i) }

	// Intra-transit-domain connectivity: spanning path + random extras.
	for d := 0; d < p.TransitDomains; d++ {
		for i := 1; i < tn; i++ {
			g.addEdge(transitOf(d, i-1), transitOf(d, i), IntraDomainWeight)
		}
		for i := 0; i < tn; i++ {
			for j := i + 2; j < tn; j++ {
				if rng.Float64() < p.TransitEdgeProb {
					g.addEdge(transitOf(d, i), transitOf(d, j), IntraDomainWeight)
				}
			}
		}
	}

	// Transit-domain interconnection: a ring of domains guarantees
	// connectivity; extra random domain pairs mimic GT-ITM's random
	// transit graph.
	if p.TransitDomains > 1 {
		ringEdges := p.TransitDomains
		if p.TransitDomains == 2 {
			ringEdges = 1 // a two-domain "ring" is a single link
		}
		for d := 0; d < ringEdges; d++ {
			e := (d + 1) % p.TransitDomains
			g.addEdge(transitOf(d, rng.Intn(tn)), transitOf(e, rng.Intn(tn)), InterDomainWeight)
		}
		for d := 0; d < p.TransitDomains; d++ {
			for e := d + 1; e < p.TransitDomains; e++ {
				if (d+1)%p.TransitDomains == e || (e+1)%p.TransitDomains == d {
					continue // ring already links them
				}
				if rng.Float64() < p.TransitDomainEdgeProb {
					g.addEdge(transitOf(d, rng.Intn(tn)), transitOf(e, rng.Intn(tn)), InterDomainWeight)
				}
			}
		}
	}

	// Stub domains: attached to every transit node.
	for d := 0; d < p.TransitDomains; d++ {
		for i := 0; i < tn; i++ {
			attach := transitOf(d, i)
			for s := 0; s < p.StubsPerTransitNode; s++ {
				size := stubDomainSize(rng, p.StubDomainSizeMean)
				g.addStubDomain(rng, attach, size, p.StubEdgeProb)
			}
		}
	}
	return g, nil
}

// stubDomainSize draws a stub-domain size uniformly from
// [ceil(mean/2), floor(3·mean/2)], which has the requested mean and keeps
// every domain non-empty.
func stubDomainSize(rng *rand.Rand, mean int) int {
	lo := (mean + 1) / 2
	hi := mean * 3 / 2
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// addStubDomain appends a connected stub domain of the given size,
// wires it internally (random spanning tree + extra edges with prob
// extraProb) and attaches one random member to the transit node attach.
func (g *Graph) addStubDomain(rng *rand.Rand, attach NodeID, size int, extraProb float64) {
	domain := g.domains
	g.domains++
	base := NodeID(len(g.nodes))
	for i := 0; i < size; i++ {
		g.nodes = append(g.nodes, Node{Kind: Stub, Domain: domain})
		g.adj = append(g.adj, nil)
		g.stubs = append(g.stubs, base+NodeID(i))
	}
	// Random spanning tree: node i links to a uniformly random earlier node.
	for i := 1; i < size; i++ {
		j := rng.Intn(i)
		g.addEdge(base+NodeID(i), base+NodeID(j), IntraDomainWeight)
	}
	// Extra intra-stub edges.
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			if rng.Float64() < extraProb && !g.hasEdge(base+NodeID(i), base+NodeID(j)) {
				g.addEdge(base+NodeID(i), base+NodeID(j), IntraDomainWeight)
			}
		}
	}
	// Attach the domain to its transit node (crosses domains: weight 3).
	g.addEdge(base+NodeID(rng.Intn(size)), attach, InterDomainWeight)
}

func (g *Graph) addEdge(a, b NodeID, w int32) {
	if a == b {
		panic("topology: self loop")
	}
	// Latency jitter: U[0.5, 1.5] of the class mean, so sibling links
	// are distinguishable by latency measurements (as GT-ITM's random
	// link weights are) while the hop metric stays exact.
	mean := float64(IntraDomainLatencyMean)
	if w == InterDomainWeight {
		mean = InterDomainLatencyMean
	}
	lat := int32(mean * (0.5 + g.genRand.Float64()))
	if lat < 1 {
		lat = 1
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Weight: w, Latency: lat})
	g.adj[b] = append(g.adj[b], Edge{To: a, Weight: w, Latency: lat})
	g.edges++
}

func (g *Graph) hasEdge(a, b NodeID) bool {
	for _, e := range g.adj[a] {
		if e.To == b {
			return true
		}
	}
	return false
}

// NumNodes returns the number of underlay nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// NumDomains returns the number of domains (transit + stub).
func (g *Graph) NumDomains() int { return g.domains }

// Node returns the classification of node id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Neighbors returns the adjacency list of id. The returned slice must
// not be modified.
func (g *Graph) Neighbors(id NodeID) []Edge { return g.adj[id] }

// StubNodes returns all stub node ids in ascending order. The returned
// slice must not be modified; overlay (DHT) nodes are drawn from it.
func (g *Graph) StubNodes() []NodeID { return g.stubs }

// SampleStubNodes returns n distinct stub nodes drawn uniformly without
// replacement using rng. It panics if n exceeds the number of stub nodes.
func (g *Graph) SampleStubNodes(rng *rand.Rand, n int) []NodeID {
	if n > len(g.stubs) {
		panic(fmt.Sprintf("topology: sample of %d from %d stub nodes", n, len(g.stubs)))
	}
	perm := rng.Perm(len(g.stubs))
	out := make([]NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = g.stubs[perm[i]]
	}
	return out
}

// Connected reports whether the graph is connected (used by tests and
// the topogen tool; Generate always returns connected graphs).
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(g.nodes)
}

// Metric selects which edge attribute shortest paths minimize.
type Metric int

// Metrics.
const (
	// HopMetric is the paper's reporting convention: interdomain edges
	// count 3, intradomain edges 1.
	HopMetric Metric = iota
	// LatencyMetric is the jittered link latency, the quantity a real
	// deployment would measure against landmarks.
	LatencyMetric
)

func (m Metric) String() string {
	if m == LatencyMetric {
		return "latency"
	}
	return "hops"
}

func edgeCost(e Edge, m Metric) int32 {
	if m == LatencyMetric {
		return e.Latency
	}
	return e.Weight
}

// pqItem is a binary-heap entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist int32
}

// dijkstra fills dist[v-lo] with the shortest-path distance from src to
// every node v in [lo, lo+len(dist)) under m, over paths that stay inside
// that ID range (-1 where there is none). Over the whole graph it is the
// reference the tests hold Distances to. heap is scratch: dijkstra
// empties it and returns it, grown as needed, for the next call to reuse.
func (g *Graph) dijkstra(src NodeID, m Metric, lo NodeID, dist []int32, heap []pqItem) []pqItem {
	const unreached = int32(-1)
	for i := range dist {
		dist[i] = unreached
	}
	hi := lo + NodeID(len(dist))
	dist[src-lo] = 0
	heap = append(heap[:0], pqItem{src, 0})
	pop := func() pqItem {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].dist < heap[small].dist {
				small = l
			}
			if r < len(heap) && heap[r].dist < heap[small].dist {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	push := func(it pqItem) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].dist <= heap[i].dist {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for len(heap) > 0 {
		it := pop()
		if it.dist != dist[it.node-lo] {
			continue // stale
		}
		for _, e := range g.adj[it.node] {
			if e.To < lo || e.To >= hi {
				continue
			}
			nd := it.dist + edgeCost(e, m)
			if d := &dist[e.To-lo]; *d == unreached || nd < *d {
				*d = nd
				push(pqItem{e.To, nd})
			}
		}
	}
	return heap
}

// Distances answers shortest-path queries under one metric from tables
// that NewDistancesMetric builds once and nothing writes after, so it is
// safe for concurrent use. A block is the transit tier (IDs [0, T)) or
// one stub domain, with an all-pairs table over paths inside it. Generate
// hangs each stub domain from one transit node, its gate, by one edge,
// and every edge weight is positive, so a path between blocks runs up to
// the gates and across the tier: up[a] + tier[gate[a]][gate[b]] + up[b].
type Distances struct {
	metric Metric
	start  []NodeID // block b holds the IDs [start[b], start[b+1]); block 0 is the tier
	off    []int    // block b's table, row-major over its IDs, starts at table[off[b]]
	table  []int32  // every block's table, back to back
	block  []int32  // per node
	gate   []NodeID // per node
	up     []int32  // per node: distance to its gate, attaching edge included
}

// NewDistances returns a hop-metric distance oracle over g.
func NewDistances(g *Graph) *Distances { return NewDistancesMetric(g, HopMetric) }

// NewDistancesMetric returns a distance oracle over g under the chosen
// metric. It panics if a stub domain does not hang from the transit tier
// by exactly one edge, which only a generator bug can cause.
func NewDistancesMetric(g *Graph, m Metric) *Distances {
	n := NodeID(len(g.nodes))
	d := &Distances{
		metric: m,
		block:  make([]int32, n),
		gate:   make([]NodeID, n),
		up:     make([]int32, n),
	}
	tier := NodeID(0)
	for tier < n && g.nodes[tier].Kind == Transit {
		tier++
	}
	// Every list and the one table array are sized once, so the build's
	// allocations do not grow with the number of blocks.
	d.start = make([]NodeID, 1, int(n-tier)+2)
	for v := tier; v < n; v++ {
		if v == tier || g.nodes[v].Domain != g.nodes[v-1].Domain {
			d.start = append(d.start, v)
		}
	}
	d.start = append(d.start, n)
	d.off = make([]int, len(d.start)-1)
	cells := 0
	for b := range d.off {
		d.off[b] = cells
		size := int(d.start[b+1] - d.start[b])
		cells += size * size
	}
	d.table = make([]int32, cells)
	var heap []pqItem
	for b := range d.off {
		lo, hi := d.start[b], d.start[b+1]
		size := int(hi - lo)
		table := d.table[d.off[b]:][:size*size]
		for v := lo; v < hi; v++ {
			heap = g.dijkstra(v, m, lo, table[int(v-lo)*size:][:size], heap)
			d.block[v] = int32(b)
			d.gate[v] = v // a stub node's gate is set below
		}
		if b == 0 {
			continue
		}
		// The domain's one edge out gives its gate, the member at its
		// near end and its cost, hence every member's distance up.
		exits := 0
		var member, gate NodeID
		var cost int32
		for v := lo; v < hi; v++ {
			for _, e := range g.adj[v] {
				if e.To < lo || e.To >= hi {
					exits++
					member, gate, cost = v, e.To, edgeCost(e, m)
				}
			}
		}
		if exits != 1 || gate >= tier {
			panic(fmt.Sprintf("topology: stub domain at node %d has %d edges out, want one to the transit tier", lo, exits))
		}
		for v := lo; v < hi; v++ {
			d.gate[v] = gate
			d.up[v] = table[int(member-lo)*size+int(v-lo)] + cost
		}
	}
	return d
}

// Metric returns the oracle's metric.
func (d *Distances) Metric() Metric { return d.metric }

// Between returns the shortest-path distance between a and b under the
// oracle's metric.
func (d *Distances) Between(a, b NodeID) int32 {
	if blk := d.block[a]; blk == d.block[b] {
		lo := d.start[blk]
		size := int(d.start[blk+1] - lo)
		return d.table[d.off[blk]+int(a-lo)*size+int(b-lo)]
	}
	tier := int(d.start[1]) // the tier's table opens the array
	return d.up[a] + d.table[int(d.gate[a])*tier+int(d.gate[b])] + d.up[b]
}
