package proximity

import (
	"math/rand"
	"testing"

	"p2plb/internal/ident"
	"p2plb/internal/topology"
)

func testGraph(t *testing.T, seed int64) (*topology.Graph, *topology.Distances) {
	t.Helper()
	g, err := topology.Generate(topology.TS5kLarge(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g, topology.NewDistances(g)
}

func smallGraph(t *testing.T, seed int64) (*topology.Graph, *topology.Distances) {
	t.Helper()
	g, err := topology.Generate(topology.Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   2,
		StubDomainSizeMean:    8,
		TransitEdgeProb:       0.5,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.4,
		Seed:                  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, topology.NewDistances(g)
}

func TestChooseRandomDistinct(t *testing.T) {
	g, d := smallGraph(t, 1)
	rng := rand.New(rand.NewSource(1))
	lm, err := ChooseRandom(g, d, rng, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Count() != 15 {
		t.Fatalf("Count = %d", lm.Count())
	}
	seen := map[topology.NodeID]bool{}
	for _, id := range lm.IDs() {
		if seen[id] {
			t.Fatal("duplicate landmark")
		}
		seen[id] = true
	}
	if lm.MaxDistance() <= 0 {
		t.Fatal("MaxDistance not computed")
	}
}

func TestChooseErrors(t *testing.T) {
	g, d := smallGraph(t, 2)
	rng := rand.New(rand.NewSource(1))
	if _, err := ChooseRandom(g, d, rng, 0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := ChooseRandom(g, d, rng, g.NumNodes()+1); err == nil {
		t.Error("too many landmarks should fail")
	}
	if _, err := ChooseSpread(g, d, rng, 0); err == nil {
		t.Error("spread m=0 should fail")
	}
	if _, err := FromIDs(g, d, nil); err == nil {
		t.Error("empty FromIDs should fail")
	}
	if _, err := FromIDs(g, d, []topology.NodeID{0, 0}); err == nil {
		t.Error("duplicate FromIDs should fail")
	}
	if _, err := FromIDs(g, d, []topology.NodeID{topology.NodeID(g.NumNodes())}); err == nil {
		t.Error("out-of-range FromIDs should fail")
	}
}

func TestChooseSpreadSeparation(t *testing.T) {
	g, d := smallGraph(t, 3)
	rng := rand.New(rand.NewSource(2))
	spread, err := ChooseSpread(g, d, rng, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Spread landmarks should be pairwise distinct and at positive
	// distance from each other.
	ids := spread.IDs()
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[i] == ids[j] {
				t.Fatal("spread chose duplicate landmarks")
			}
			if d.Between(ids[i], ids[j]) == 0 {
				t.Fatal("spread chose co-located landmarks")
			}
		}
	}
}

func TestVectorMatchesDistances(t *testing.T) {
	g, d := smallGraph(t, 4)
	lm, err := FromIDs(g, d, []topology.NodeID{0, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.NumNodes(); n += 7 {
		v := lm.Vector(topology.NodeID(n))
		if len(v) != 3 {
			t.Fatal("wrong vector length")
		}
		for i, id := range lm.IDs() {
			if v[i] != d.Between(id, topology.NodeID(n)) {
				t.Fatalf("vector[%d] = %d, want %d", i, v[i], d.Between(id, topology.NodeID(n)))
			}
		}
	}
	// A landmark's own vector has a zero at its own position.
	v := lm.Vector(5)
	if v[1] != 0 {
		t.Fatalf("landmark self-distance = %d", v[1])
	}
}

func TestQuantizeBounds(t *testing.T) {
	g, d := smallGraph(t, 5)
	rng := rand.New(rand.NewSource(3))
	lm, _ := ChooseRandom(g, d, rng, 4)
	m, err := NewMapper(lm, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := lm.DimRange(0)
	if lo > hi {
		t.Fatalf("DimRange inverted: %d > %d", lo, hi)
	}
	if q := m.Quantize(0, lo); q != 0 {
		t.Errorf("Quantize(min) = %d, want 0", q)
	}
	if q := m.Quantize(0, hi); q != 3 {
		t.Errorf("Quantize(max) = %d, want 3", q)
	}
	if q := m.Quantize(0, hi*10); q != 3 {
		t.Errorf("Quantize(beyond max) = %d, want clamp to 3", q)
	}
	if q := m.Quantize(0, lo-5); q != 0 {
		t.Errorf("Quantize(below min) = %d, want 0", q)
	}
	// Monotone.
	prev := uint32(0)
	for dist := lo; dist <= hi; dist++ {
		q := m.Quantize(0, dist)
		if q < prev {
			t.Fatalf("Quantize not monotone at %d", dist)
		}
		prev = q
	}
}

func TestMapperDeterministic(t *testing.T) {
	g, d := testGraph(t, 6)
	rng := rand.New(rand.NewSource(4))
	lm, _ := ChooseSpread(g, d, rng, DefaultLandmarkCount)
	m, err := NewMapper(lm, DefaultBitsPerDimension)
	if err != nil {
		t.Fatal(err)
	}
	stubs := g.StubNodes()
	for i := 0; i < 50; i++ {
		n := stubs[i*37%len(stubs)]
		if m.Key(n) != m.Key(n) {
			t.Fatal("Key not deterministic")
		}
	}
}

func TestSameStubDomainSameOrCloseKeys(t *testing.T) {
	// The paper: "Nodes in a stub domain have close (or even same)
	// Hilbert numbers." Verify same-domain pairs collide in key space
	// far more than cross-domain pairs.
	g, d := testGraph(t, 7)
	rng := rand.New(rand.NewSource(5))
	lm, err := ChooseSpread(g, d, rng, DefaultLandmarkCount)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(lm, DefaultBitsPerDimension)
	if err != nil {
		t.Fatal(err)
	}
	stubs := g.StubNodes()
	sameEqual, sameTotal := 0, 0
	crossEqual, crossTotal := 0, 0
	for trials := 0; trials < 3000; trials++ {
		a := stubs[rng.Intn(len(stubs))]
		b := stubs[rng.Intn(len(stubs))]
		if a == b {
			continue
		}
		ka, kb := m.HilbertNumber(a), m.HilbertNumber(b)
		if g.Node(a).Domain == g.Node(b).Domain {
			sameTotal++
			if ka == kb {
				sameEqual++
			}
		} else {
			crossTotal++
			if ka == kb {
				crossEqual++
			}
		}
	}
	if sameTotal == 0 || crossTotal == 0 {
		t.Skip("insufficient pairs sampled")
	}
	sameFrac := float64(sameEqual) / float64(sameTotal)
	crossFrac := float64(crossEqual) / float64(crossTotal)
	// Quantization boundaries split some stub domains across grid cells,
	// so same-domain pairs do not always collide exactly — but they must
	// collide far more often than cross-domain pairs (the "close or even
	// same Hilbert numbers" property).
	if sameFrac < 0.15 {
		t.Errorf("same-domain Hilbert collision rate %.2f, want >= 0.15", sameFrac)
	}
	if crossFrac*3 > sameFrac {
		t.Errorf("cross-domain collision rate %.2f too close to same-domain %.2f",
			crossFrac, sameFrac)
	}
}

func TestKeyLocalityVersusPhysicalDistance(t *testing.T) {
	// Physically close node pairs should map to closer DHT keys than
	// physically distant pairs, on average.
	g, d := testGraph(t, 8)
	rng := rand.New(rand.NewSource(6))
	lm, _ := ChooseSpread(g, d, rng, DefaultLandmarkCount)
	m, _ := NewMapper(lm, DefaultBitsPerDimension)
	stubs := g.StubNodes()
	var nearKeyDist, farKeyDist float64
	nearCount, farCount := 0, 0
	for trials := 0; trials < 4000; trials++ {
		a := stubs[rng.Intn(len(stubs))]
		b := stubs[rng.Intn(len(stubs))]
		if a == b {
			continue
		}
		ka, kb := m.Key(a), m.Key(b)
		keyGap := float64(minDist(ka, kb))
		if d.Between(a, b) <= 3 {
			nearKeyDist += keyGap
			nearCount++
		} else if d.Between(a, b) >= 12 {
			farKeyDist += keyGap
			farCount++
		}
	}
	if nearCount < 20 || farCount < 20 {
		t.Skip("insufficient samples")
	}
	nearMean := nearKeyDist / float64(nearCount)
	farMean := farKeyDist / float64(farCount)
	if nearMean*2 > farMean {
		t.Errorf("key locality weak: near mean gap %.3g vs far mean gap %.3g", nearMean, farMean)
	}
}

func minDist(a, b ident.ID) uint64 {
	d1 := a.Dist(b)
	d2 := b.Dist(a)
	if d1 < d2 {
		return d1
	}
	return d2
}

func TestKeyScalingCoversSpace(t *testing.T) {
	// Keys from a 30-bit Hilbert index should spread over the high bits
	// of the 32-bit space, not cluster at the bottom.
	g, d := testGraph(t, 9)
	rng := rand.New(rand.NewSource(7))
	lm, _ := ChooseSpread(g, d, rng, DefaultLandmarkCount)
	m, _ := NewMapper(lm, DefaultBitsPerDimension)
	var maxKey ident.ID
	for _, n := range g.StubNodes()[:500] {
		if k := m.Key(n); ident.Compare(k, maxKey) > 0 {
			maxKey = k
		}
	}
	if ident.Compare(maxKey, 1<<28) < 0 {
		t.Errorf("keys cluster low (max %s); scaling wrong?", maxKey)
	}
}

func TestMapperBitsTooLarge(t *testing.T) {
	g, d := smallGraph(t, 10)
	rng := rand.New(rand.NewSource(8))
	lm, _ := ChooseRandom(g, d, rng, 15)
	if _, err := NewMapper(lm, 5); err == nil { // 75 bits > 64
		t.Fatal("oversized curve should fail")
	}
}

func BenchmarkMapperKey(b *testing.B) {
	g, err := topology.Generate(topology.TS5kLarge(1))
	if err != nil {
		b.Fatal(err)
	}
	d := topology.NewDistances(g)
	rng := rand.New(rand.NewSource(1))
	lm, _ := ChooseSpread(g, d, rng, DefaultLandmarkCount)
	m, _ := NewMapper(lm, DefaultBitsPerDimension)
	stubs := g.StubNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Key(stubs[i%len(stubs)])
	}
}
