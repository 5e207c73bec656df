package topology

import (
	"math/rand"
	"testing"
)

func TestLatencyJitterBounds(t *testing.T) {
	g, _ := Generate(TS5kLarge(21))
	for i := 0; i < g.NumNodes(); i++ {
		for _, e := range g.Neighbors(NodeID(i)) {
			var lo, hi int32
			if e.Weight == IntraDomainWeight {
				lo, hi = IntraDomainLatencyMean/2, IntraDomainLatencyMean*3/2
			} else {
				lo, hi = InterDomainLatencyMean/2, InterDomainLatencyMean*3/2
			}
			if e.Latency < lo || e.Latency > hi {
				t.Fatalf("edge latency %d outside [%d,%d] for weight %d",
					e.Latency, lo, hi, e.Weight)
			}
		}
	}
}

func TestLatencySymmetric(t *testing.T) {
	g, _ := Generate(TS5kSmall(22))
	for i := 0; i < g.NumNodes(); i++ {
		a := NodeID(i)
		for _, e := range g.Neighbors(a) {
			found := false
			for _, back := range g.Neighbors(e.To) {
				if back.To == a && back.Latency == e.Latency {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("latency asymmetric on edge %d-%d", a, e.To)
			}
		}
	}
}

func TestShortestLatencyAgainstBellmanFord(t *testing.T) {
	p := Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   2,
		StubDomainSizeMean:    5,
		TransitEdgeProb:       0.5,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.3,
		Seed:                  23,
	}
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for src := 0; src < n; src += 2 {
		got := shortestFrom(g, NodeID(src), LatencyMetric)
		want := bellmanFordMetric(g, NodeID(src), LatencyMetric)
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("latency dist(%d,%d) = %d, want %d", src, v, got[v], want[v])
			}
		}
	}
}

func bellmanFordMetric(g *Graph, src NodeID, m Metric) []int32 {
	const inf = int32(1) << 30
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] == inf {
				continue
			}
			for _, e := range g.Neighbors(NodeID(u)) {
				if nd := dist[u] + edgeCost(e, m); nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestMetricAccessors(t *testing.T) {
	g, _ := Generate(TS5kSmall(24))
	dh := NewDistances(g)
	dl := NewDistancesMetric(g, LatencyMetric)
	if dh.Metric() != HopMetric || dl.Metric() != LatencyMetric {
		t.Fatal("metric accessors wrong")
	}
	if HopMetric.String() != "hops" || LatencyMetric.String() != "latency" {
		t.Fatal("metric strings wrong")
	}
	// The two metrics must disagree in magnitude (latency ~ 20-300x).
	rng := rand.New(rand.NewSource(1))
	stubs := g.StubNodes()
	for i := 0; i < 50; i++ {
		a, b := stubs[rng.Intn(len(stubs))], stubs[rng.Intn(len(stubs))]
		if a == b {
			continue
		}
		h, l := dh.Between(a, b), dl.Between(a, b)
		if h <= 0 || l <= 0 {
			t.Fatal("non-positive distance between distinct nodes")
		}
		if l < h {
			t.Fatalf("latency %d below hop metric %d — scales inverted?", l, h)
		}
	}
}

func TestLatencyCorrelatesWithHops(t *testing.T) {
	// The two metrics measure the same paths at different scales; their
	// ordering should broadly agree (rank correlation on random pairs).
	g, _ := Generate(TS5kLarge(25))
	dh := NewDistances(g)
	dl := NewDistancesMetric(g, LatencyMetric)
	rng := rand.New(rand.NewSource(2))
	stubs := g.StubNodes()
	agree, total := 0, 0
	for i := 0; i < 500; i++ {
		a, b := stubs[rng.Intn(len(stubs))], stubs[rng.Intn(len(stubs))]
		c, d := stubs[rng.Intn(len(stubs))], stubs[rng.Intn(len(stubs))]
		if a == b || c == d {
			continue
		}
		dh1, dh2 := dh.Between(a, b), dh.Between(c, d)
		dl1, dl2 := dl.Between(a, b), dl.Between(c, d)
		if dh1 == dh2 {
			continue
		}
		total++
		if (dh1 < dh2) == (dl1 < dl2) {
			agree++
		}
	}
	if total == 0 {
		t.Skip("no comparable pairs")
	}
	// ±50% per-link jitter dominates small hop differences, so perfect
	// agreement is impossible; require clear correlation.
	if frac := float64(agree) / float64(total); frac < 0.65 {
		t.Errorf("metrics agree on only %.0f%% of pair orderings", frac*100)
	}
}
