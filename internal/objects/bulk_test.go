package objects

import (
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/sim"
)

func randomBatch(rng *rand.Rand, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{Key: ident.ID(rng.Uint32()), Load: rng.Float64() * 10}
	}
	return objs
}

// BulkInsert must be observationally identical to an Insert loop over
// the same batch: same key-sorted object array, bit-identical
// virtual-server loads (credited in the same order), on both empty and
// pre-populated stores.
func TestBulkInsertMatchesInsertLoop(t *testing.T) {
	for _, preload := range []int{0, 500} {
		ringA := ringFixture(1, 16, 4)
		ringB := ringFixture(1, 16, 4)
		a, b := NewStore(ringA), NewStore(ringB)

		pre := randomBatch(rand.New(rand.NewSource(7)), preload)
		batch := randomBatch(rand.New(rand.NewSource(8)), 2000)

		for _, o := range pre {
			if err := a.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.BulkInsert(pre); err != nil {
			t.Fatal(err)
		}
		for _, o := range batch {
			if err := a.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.BulkInsert(batch); err != nil {
			t.Fatal(err)
		}

		if a.Len() != b.Len() {
			t.Fatalf("preload %d: Len %d vs %d", preload, a.Len(), b.Len())
		}
		ao, bo := a.Objects(), b.Objects()
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("preload %d: object %d differs: %+v vs %+v", preload, i, ao[i], bo[i])
			}
		}
		avs, bvs := ringA.VServers(), ringB.VServers()
		for i := range avs {
			if avs[i].Load != bvs[i].Load {
				t.Fatalf("preload %d: VS %d load %v vs %v (must be bit-identical)",
					preload, i, avs[i].Load, bvs[i].Load)
			}
		}
		if err := b.CheckLoads(1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBulkInsertErrors(t *testing.T) {
	s := NewStore(chord.NewRing(sim.NewEngine(1), chord.Config{}))
	if err := s.BulkInsert([]Object{{Key: 1, Load: 1}}); err == nil {
		t.Fatal("expected empty-ring error")
	}
	s = NewStore(ringFixture(1, 4, 2))
	if err := s.BulkInsert([]Object{{Key: 1, Load: -1}}); err == nil {
		t.Fatal("expected negative-load error")
	}
	if s.Len() != 0 {
		t.Fatalf("failed BulkInsert mutated the store: Len = %d", s.Len())
	}
	if err := s.BulkInsert(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// BulkInsert must not alias or reorder the caller's slice.
func TestBulkInsertLeavesBatchAlone(t *testing.T) {
	s := NewStore(ringFixture(1, 4, 2))
	batch := []Object{{Key: 9, Load: 1}, {Key: 3, Load: 2}, {Key: 6, Load: 3}}
	want := append([]Object(nil), batch...)
	if err := s.BulkInsert(batch); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if batch[i] != want[i] {
			t.Fatalf("caller batch mutated at %d: %+v", i, batch[i])
		}
	}
	objs := s.Objects()
	for i := 1; i < len(objs); i++ {
		if ident.Compare(objs[i].Key, objs[i-1].Key) < 0 {
			t.Fatalf("store not key-sorted at %d", i)
		}
	}
}

// The satellite's point: the per-object copy-insert is quadratic, the
// bulk path is linearithmic. At 100k objects the gap is around two
// orders of magnitude; run with -bench BulkInsert to see it.
func BenchmarkInsertLoop(b *testing.B) {
	benchInsert(b, func(s *Store, objs []Object) {
		for _, o := range objs {
			if err := s.Insert(o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBulkInsert(b *testing.B) {
	benchInsert(b, func(s *Store, objs []Object) {
		if err := s.BulkInsert(objs); err != nil {
			b.Fatal(err)
		}
	})
}

func benchInsert(b *testing.B, insert func(*Store, []Object)) {
	ring := ringFixture(1, 64, 4)
	batch := randomBatch(rand.New(rand.NewSource(3)), 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewStore(ring)
		for _, vs := range ring.VServers() {
			vs.Load = 0
		}
		b.StartTimer()
		insert(s, batch)
	}
}
