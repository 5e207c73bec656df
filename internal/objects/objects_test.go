package objects

import (
	"math"
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ident"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func ringFixture(seed int64, nodes, vsPer int) *chord.Ring {
	return workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: vsPer})
}

func TestInsertRemoveAccounting(t *testing.T) {
	ring := ringFixture(1, 16, 4)
	s := NewStore(ring)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if err := s.Insert(Object{Key: ident.ID(rng.Uint32()), Load: rng.Float64() * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.CheckLoads(1e-9); err != nil {
		t.Fatal(err)
	}
	total := s.TotalLoad()
	var ringTotal float64
	for _, vs := range ring.VServers() {
		ringTotal += vs.Load
	}
	if math.Abs(total-ringTotal) > 1e-6 {
		t.Fatalf("store total %v != ring total %v", total, ringTotal)
	}
	// Remove half.
	for i := 0; i < 500; i++ {
		if _, err := s.RemoveAt(rng.Intn(s.Len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestInsertErrors(t *testing.T) {
	ring := ringFixture(2, 4, 2)
	s := NewStore(ring)
	if err := s.Insert(Object{Key: 1, Load: -1}); err == nil {
		t.Error("negative load should fail")
	}
	empty := NewStore(chord.NewRing(sim.NewEngine(1), chord.Config{}))
	if err := empty.Insert(Object{Key: 1, Load: 1}); err == nil {
		t.Error("empty ring should fail")
	}
	if _, err := s.RemoveAt(0); err == nil {
		t.Error("RemoveAt on empty store should fail")
	}
	if _, err := s.RemoveAt(-1); err == nil {
		t.Error("negative index should fail")
	}
}

func TestObjectsSortedByKey(t *testing.T) {
	ring := ringFixture(3, 8, 3)
	s := NewStore(ring)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		s.Insert(Object{Key: ident.ID(rng.Uint32()), Load: 1})
	}
	objs := s.Objects()
	for i := 1; i < len(objs); i++ {
		if ident.Compare(objs[i].Key, objs[i-1].Key) < 0 {
			t.Fatal("objects not sorted")
		}
	}
}

func TestSyncLoadsAfterChurn(t *testing.T) {
	ring := ringFixture(4, 32, 4)
	s := NewStore(ring)
	rng := rand.New(rand.NewSource(3))
	s.Populate(rng, 5000, func(r *rand.Rand) float64 { return r.Float64() })
	if err := s.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
	// Kill nodes: their VSs vanish, regions (and objects) fall to
	// successors. Ring absorbs the raw load; SyncLoads must agree with
	// a from-scratch recomputation.
	alive := ring.AliveNodes()
	for i := 0; i < 8; i++ {
		ring.RemoveNode(alive[i])
	}
	s.SyncLoads()
	if err := s.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.TotalLoad()-ringLoad(ring)) > 1e-6 {
		t.Fatal("total load mismatch after churn sync")
	}
	// New nodes join: regions split; objects must be re-credited.
	for i := 0; i < 8; i++ {
		ring.AddNode(-1, 100, 4)
	}
	s.SyncLoads()
	if err := s.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
}

func ringLoad(r *chord.Ring) float64 {
	var t float64
	for _, vs := range r.VServers() {
		t += vs.Load
	}
	return t
}

func TestSyncLoadsWrapAround(t *testing.T) {
	// Objects with keys above the highest VS id must wrap to the first.
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	ring.AddNodeWithIDs(-1, 10, []ident.ID{1000, 2000})
	s := NewStore(ring)
	s.Insert(Object{Key: 3000, Load: 7}) // wraps to VS 1000
	s.Insert(Object{Key: 1500, Load: 5}) // VS 2000
	s.SyncLoads()
	vss := ring.VServers()
	if vss[0].Load != 7 || vss[1].Load != 5 {
		t.Fatalf("wrap-around credit wrong: %v / %v", vss[0].Load, vss[1].Load)
	}
}

func TestDriftPreservesCountAndAccounting(t *testing.T) {
	ring := ringFixture(5, 16, 4)
	s := NewStore(ring)
	rng := rand.New(rand.NewSource(4))
	s.Populate(rng, 2000, func(r *rand.Rand) float64 { return r.Float64() * 5 })
	for i := 0; i < 10; i++ {
		if err := s.Drift(rng, 200, func(r *rand.Rand) float64 { return r.Float64() * 5 }); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 2000 {
			t.Fatalf("drift changed object count: %d", s.Len())
		}
	}
	if err := s.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestManySmallObjectsGiveGaussianLikeVSLoads(t *testing.T) {
	// The paper's §5.1 justification: VS load = sum of many small
	// independent object loads ⇒ approximately Gaussian with mean μ·f.
	ring := ringFixture(6, 64, 5)
	s := NewStore(ring)
	rng := rand.New(rand.NewSource(5))
	const objCount = 200000
	const objMean = 0.5
	s.Populate(rng, objCount, func(r *rand.Rand) float64 { return r.Float64() }) // mean 0.5
	mu := objCount * objMean
	// Check E[VS load] ≈ μ·f over coarse f-buckets.
	var relErr float64
	checked := 0
	for _, vs := range ring.VServers() {
		f := ring.RegionOf(vs).Fraction()
		want := mu * f
		if want < 50 {
			continue // too few objects for the CLT regime
		}
		relErr += math.Abs(vs.Load-want) / want
		checked++
	}
	if checked == 0 {
		t.Skip("no VS large enough")
	}
	if avg := relErr / float64(checked); avg > 0.15 {
		t.Errorf("mean relative deviation from μ·f is %.3f, want < 0.15", avg)
	}
}

func TestZipfLoadsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	loadFn := ZipfLoads(rng, 1.2, 1, 1<<16, 10)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		v := loadFn(rng)
		if v <= 0 {
			t.Fatal("non-positive load")
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 5 || mean > 20 {
		t.Errorf("Zipf mean %v, want ~10", mean)
	}
}

func TestObjectBackedBalancingRound(t *testing.T) {
	// End-to-end: object population → VS loads → balancing round →
	// loads still consistent (transfers move whole VSs with their
	// objects' regions intact).
	ring := ringFixture(7, 128, 5)
	s := NewStore(ring)
	rng := rand.New(rand.NewSource(7))
	s.Populate(rng, 50000, func(r *rand.Rand) float64 { return r.Float64() })
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	bal, err := core.NewBalancer(ring, tree, core.Config{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bal.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("%d heavy remain", res.HeavyAfter)
	}
	// Transfers do not change regions, so object accounting must hold
	// without a resync.
	if err := s.CheckLoads(1e-6); err != nil {
		t.Fatal(err)
	}
}
