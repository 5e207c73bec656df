package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// shortestFrom is the reference the oracle is held to: Dijkstra from src
// over the whole graph.
func shortestFrom(g *Graph, src NodeID, m Metric) []int32 {
	dist := make([]int32, g.NumNodes())
	g.dijkstra(src, m, 0, dist, nil)
	return dist
}

// requireMatchesDijkstra holds Between, both ways round, to the
// whole-graph Dijkstra for every pair from at least `sources` evenly
// strided sources (node 0, a transit node, among them), under both
// metrics.
func requireMatchesDijkstra(t *testing.T, g *Graph, sources int) {
	t.Helper()
	n := g.NumNodes()
	stride := max(1, n/sources)
	for _, m := range []Metric{HopMetric, LatencyMetric} {
		d := NewDistancesMetric(g, m)
		for src := NodeID(0); int(src) < n; src += NodeID(stride) {
			for v, want := range shortestFrom(g, src, m) {
				if got := d.Between(src, NodeID(v)); got != want {
					t.Fatalf("%v: Between(%d, %d) = %d, Dijkstra %d", m, src, v, got, want)
				}
				if got := d.Between(NodeID(v), src); got != want {
					t.Fatalf("%v: Between(%d, %d) = %d, Dijkstra %d", m, v, src, got, want)
				}
			}
		}
	}
}

func TestDistancesMatchDijkstra(t *testing.T) {
	presets := []struct {
		name   string
		params func(int64) Params
	}{{"ts5k-large", TS5kLarge}, {"ts5k-small", TS5kSmall}}
	for _, c := range presets {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				g, err := Generate(c.params(seed))
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesDijkstra(t, g, 16)
			})
		}
	}
	degenerate := []struct {
		name string
		p    Params
	}{
		{"one-transit-domain", Params{TransitDomains: 1, TransitNodesPerDomain: 4,
			StubsPerTransitNode: 3, StubDomainSizeMean: 5, TransitEdgeProb: 0.5, StubEdgeProb: 0.4}},
		{"one-transit-node", Params{TransitDomains: 3, TransitNodesPerDomain: 1,
			StubsPerTransitNode: 2, StubDomainSizeMean: 4, TransitDomainEdgeProb: 0.5, StubEdgeProb: 0.4}},
		{"one-node-stub-domains", Params{TransitDomains: 4, TransitNodesPerDomain: 3,
			StubsPerTransitNode: 3, StubDomainSizeMean: 1, TransitEdgeProb: 0.5, TransitDomainEdgeProb: 0.5}},
		{"no-stub-domains", Params{TransitDomains: 3, TransitNodesPerDomain: 3,
			TransitEdgeProb: 0.5, TransitDomainEdgeProb: 0.5}},
		{"two-transit-domains", Params{TransitDomains: 2, TransitNodesPerDomain: 2,
			StubsPerTransitNode: 2, StubDomainSizeMean: 3, TransitDomainEdgeProb: 1, StubEdgeProb: 0.4}},
		{"one-node-tier", Params{TransitDomains: 1, TransitNodesPerDomain: 1,
			StubsPerTransitNode: 2, StubDomainSizeMean: 1}},
	}
	for _, c := range degenerate {
		for seed := int64(1); seed <= 4; seed++ {
			p := c.p
			p.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				g, err := Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesDijkstra(t, g, g.NumNodes())
			})
		}
	}
}

// FuzzDistancesVsDijkstra draws small transit-stub shapes, one-node
// tiers, one-node stub domains and graphs without stubs among them, and
// holds every pair to Dijkstra under both metrics.
func FuzzDistancesVsDijkstra(f *testing.F) {
	f.Fuzz(func(t *testing.T, domains, nodes, stubs, mean, transitProb, domainProb, stubProb uint8, seed int64) {
		g, err := Generate(Params{
			TransitDomains:        1 + int(domains%4),
			TransitNodesPerDomain: 1 + int(nodes%4),
			StubsPerTransitNode:   int(stubs % 4),
			StubDomainSizeMean:    1 + int(mean%6),
			TransitEdgeProb:       float64(transitProb) / 255,
			TransitDomainEdgeProb: float64(domainProb) / 255,
			StubEdgeProb:          float64(stubProb) / 255,
			Seed:                  seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesDijkstra(t, g, g.NumNodes())
	})
}

var (
	sinkDistances *Distances
	sinkDistance  int32
)

// TestNewDistancesAllocsPerBlock holds a table build to one allocation
// per block, plus a few dozen for the per-node arrays, the block lists'
// growth and the one heap every source's Dijkstra reuses. A heap started
// afresh per source would add at least one allocation per node.
func TestNewDistancesAllocsPerBlock(t *testing.T) {
	g, err := Generate(TS5kSmall(1))
	if err != nil {
		t.Fatal(err)
	}
	blocks := len(NewDistances(g).tables)
	allocs := testing.AllocsPerRun(2, func() { sinkDistances = NewDistances(g) })
	if limit := float64(blocks + 64); allocs > limit {
		t.Fatalf("NewDistances allocates %.0f times for %d blocks over %d nodes, want at most %.0f",
			allocs, blocks, g.NumNodes(), limit)
	}
}

func BenchmarkNewDistances(b *testing.B) {
	for _, preset := range []struct {
		name string
		p    Params
	}{{"ts5k-large", TS5kLarge(1)}, {"ts5k-small", TS5kSmall(1)}} {
		g, err := Generate(preset.p)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []Metric{HopMetric, LatencyMetric} {
			b.Run(preset.name+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkDistances = NewDistancesMetric(g, m)
				}
			})
		}
	}
}

// BenchmarkBetween queries random pairs of ts5k-large: most are in
// different blocks, as transfer costs and landmark vectors are.
func BenchmarkBetween(b *testing.B) {
	g, err := Generate(TS5kLarge(1))
	if err != nil {
		b.Fatal(err)
	}
	d := NewDistancesMetric(g, LatencyMetric)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sinkDistance += d.Between(p[0], p[1])
	}
}
