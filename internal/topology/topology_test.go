package topology

import (
	"math/rand"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	good := TS5kLarge(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{TransitDomains: 0, TransitNodesPerDomain: 1},
		{TransitDomains: 1, TransitNodesPerDomain: 0},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubsPerTransitNode: -1},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubsPerTransitNode: 1, StubDomainSizeMean: 0},
		{TransitDomains: 1, TransitNodesPerDomain: 1, TransitEdgeProb: 1.5},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubEdgeProb: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should fail validation", i)
		}
	}
	if _, err := Generate(bad[0]); err == nil {
		t.Error("Generate must reject invalid params")
	}
}

func TestTS5kLargeShape(t *testing.T) {
	g, err := Generate(TS5kLarge(1))
	if err != nil {
		t.Fatal(err)
	}
	transit, stub := 0, 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(NodeID(i)).Kind == Transit {
			transit++
		} else {
			stub++
		}
	}
	if transit != 5*3 {
		t.Errorf("transit nodes = %d, want 15", transit)
	}
	// 75 stub domains averaging 60 nodes: expect roughly 4500 ± 25%.
	if stub < 3300 || stub > 5700 {
		t.Errorf("stub nodes = %d, want ~4500", stub)
	}
	if len(g.StubNodes()) != stub {
		t.Errorf("StubNodes() has %d entries, want %d", len(g.StubNodes()), stub)
	}
	// 5 transit + 75 stub domains.
	if g.NumDomains() != 5+75 {
		t.Errorf("domains = %d, want 80", g.NumDomains())
	}
	if !g.Connected() {
		t.Error("graph must be connected")
	}
}

func TestTS5kSmallShape(t *testing.T) {
	g, err := Generate(TS5kSmall(2))
	if err != nil {
		t.Fatal(err)
	}
	transit := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(NodeID(i)).Kind == Transit {
			transit++
		}
	}
	if transit != 120*5 {
		t.Errorf("transit nodes = %d, want 600", transit)
	}
	stub := len(g.StubNodes())
	// 2400 stub domains of ~2 nodes each.
	if stub < 3600 || stub > 6000 {
		t.Errorf("stub nodes = %d, want ~4800", stub)
	}
	if g.NumDomains() != 120+120*5*4 {
		t.Errorf("domains = %d, want %d", g.NumDomains(), 120+2400)
	}
	if !g.Connected() {
		t.Error("graph must be connected")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(TS5kSmall(7))
	b, _ := Generate(TS5kSmall(7))
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		ea, eb := a.Neighbors(NodeID(i)), b.Neighbors(NodeID(i))
		if len(ea) != len(eb) {
			t.Fatalf("node %d degree differs", i)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("node %d edge %d differs", i, j)
			}
		}
	}
	c, _ := Generate(TS5kSmall(8))
	if c.NumEdges() == a.NumEdges() && c.NumNodes() == a.NumNodes() {
		t.Log("different seeds produced same shape (possible but unlikely)")
	}
}

func TestEdgeWeightsFollowDomainRule(t *testing.T) {
	g, _ := Generate(TS5kLarge(3))
	for i := 0; i < g.NumNodes(); i++ {
		a := NodeID(i)
		for _, e := range g.Neighbors(a) {
			sameDomain := g.Node(a).Domain == g.Node(e.To).Domain
			if sameDomain && e.Weight != IntraDomainWeight {
				t.Fatalf("intradomain edge %d-%d has weight %d", a, e.To, e.Weight)
			}
			if !sameDomain && e.Weight != InterDomainWeight {
				t.Fatalf("interdomain edge %d-%d has weight %d", a, e.To, e.Weight)
			}
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	g, _ := Generate(TS5kSmall(4))
	for i := 0; i < g.NumNodes(); i++ {
		a := NodeID(i)
		for _, e := range g.Neighbors(a) {
			found := false
			for _, back := range g.Neighbors(e.To) {
				if back.To == a && back.Weight == e.Weight {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no symmetric counterpart", a, e.To)
			}
		}
	}
}

func TestShortestFromAgainstBellmanFord(t *testing.T) {
	// Small graph so O(VE) Bellman-Ford is cheap.
	p := Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   2,
		StubDomainSizeMean:    4,
		TransitEdgeProb:       0.5,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.3,
		Seed:                  11,
	}
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for src := 0; src < n; src += 3 {
		got := shortestFrom(g, NodeID(src), HopMetric)
		want := bellmanFord(g, NodeID(src))
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("dist(%d,%d) = %d, want %d", src, v, got[v], want[v])
			}
		}
	}
}

func bellmanFord(g *Graph, src NodeID) []int32 {
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
				if nd := dist[u] + e.Weight; nd < dist[e.To] {
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

func TestShortestPathProperties(t *testing.T) {
	g, _ := Generate(TS5kLarge(5))
	d := shortestFrom(g, 0, HopMetric)
	if d[0] != 0 {
		t.Fatal("self distance nonzero")
	}
	for v, dv := range d {
		if dv < 0 {
			t.Fatalf("node %d unreachable in connected graph", v)
		}
		// Triangle inequality against direct edges.
		for _, e := range g.Neighbors(NodeID(v)) {
			if d[e.To] > dv+e.Weight {
				t.Fatalf("triangle violation: d[%d]=%d > d[%d]+w=%d", e.To, d[e.To], v, dv+e.Weight)
			}
		}
	}
}

func TestIntraStubDistancesShort(t *testing.T) {
	// The ts5k-large reproduction hinges on nodes in the same stub domain
	// being a couple of hops apart (dense stub domains).
	g, _ := Generate(TS5kLarge(6))
	dist := NewDistances(g)
	rng := rand.New(rand.NewSource(1))
	stubs := g.StubNodes()
	within2 := 0
	trials := 0
	for trials < 400 {
		a := stubs[rng.Intn(len(stubs))]
		// Find another node in the same domain.
		dom := g.Node(a).Domain
		b := NodeID(-1)
		for attempts := 0; attempts < 200; attempts++ {
			c := stubs[rng.Intn(len(stubs))]
			if c != a && g.Node(c).Domain == dom {
				b = c
				break
			}
		}
		if b < 0 {
			continue
		}
		trials++
		if dist.Between(a, b) <= 2 {
			within2++
		}
	}
	if frac := float64(within2) / float64(trials); frac < 0.80 {
		t.Errorf("only %.0f%% of intra-stub pairs within 2 hops; stub domains too sparse", frac*100)
	}
}

func TestInterDomainDistancesLong(t *testing.T) {
	// Nodes in stub domains attached to different transit domains should
	// usually be >= 10 units apart on ts5k-large.
	g, _ := Generate(TS5kLarge(7))
	rng := rand.New(rand.NewSource(2))
	stubs := g.StubNodes()
	dist := NewDistances(g)
	far := 0
	trials := 0
	for trials < 300 {
		a := stubs[rng.Intn(len(stubs))]
		b := stubs[rng.Intn(len(stubs))]
		if g.Node(a).Domain == g.Node(b).Domain {
			continue
		}
		trials++
		if dist.Between(a, b) >= 10 {
			far++
		}
	}
	if frac := float64(far) / float64(trials); frac < 0.6 {
		t.Errorf("only %.0f%% of cross-domain pairs are >=10 units apart", frac*100)
	}
}

func TestSampleStubNodes(t *testing.T) {
	g, _ := Generate(TS5kLarge(10))
	rng := rand.New(rand.NewSource(3))
	sample := g.SampleStubNodes(rng, 4096)
	if len(sample) != 4096 {
		t.Fatalf("sample size %d", len(sample))
	}
	seen := map[NodeID]bool{}
	for _, id := range sample {
		if seen[id] {
			t.Fatal("duplicate in sample")
		}
		seen[id] = true
		if g.Node(id).Kind != Stub {
			t.Fatal("sampled a transit node")
		}
	}
}

func TestSampleStubNodesPanics(t *testing.T) {
	g, _ := Generate(Params{
		TransitDomains: 1, TransitNodesPerDomain: 1,
		StubsPerTransitNode: 1, StubDomainSizeMean: 2, Seed: 1,
	})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sample should panic")
		}
	}()
	g.SampleStubNodes(rand.New(rand.NewSource(1)), g.NumNodes()+1)
}

func TestStubDomainSizeMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sum int
	n := 100000
	for i := 0; i < n; i++ {
		s := stubDomainSize(rng, 60)
		if s < 30 || s > 90 {
			t.Fatalf("size %d outside [30,90]", s)
		}
		sum += s
	}
	mean := float64(sum) / float64(n)
	if mean < 58 || mean > 62 {
		t.Errorf("mean stub size %v, want ~60", mean)
	}
	// Degenerate: mean 1 must still produce non-empty domains.
	for i := 0; i < 100; i++ {
		if s := stubDomainSize(rng, 1); s < 1 {
			t.Fatal("empty stub domain")
		}
	}
}

func TestTwoTransitDomains(t *testing.T) {
	g, err := Generate(Params{
		TransitDomains: 2, TransitNodesPerDomain: 2,
		StubsPerTransitNode: 1, StubDomainSizeMean: 2,
		TransitDomainEdgeProb: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("two-domain graph must be connected")
	}
}

func TestSingleDomainNoStubs(t *testing.T) {
	g, err := Generate(Params{TransitDomains: 1, TransitNodesPerDomain: 4, TransitEdgeProb: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || !g.Connected() {
		t.Fatalf("got %d nodes, connected=%v", g.NumNodes(), g.Connected())
	}
	if len(g.StubNodes()) != 0 {
		t.Fatal("expected no stub nodes")
	}
}

func BenchmarkGenerateTS5kLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(TS5kLarge(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
