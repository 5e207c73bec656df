// Package objects grounds virtual-server loads in an object-level
// storage model: objects are hashed into the identifier space, each is
// served by the virtual server owning its key, and a virtual server's
// load is the sum of its objects' loads.
//
// This is the paper's own justification for the Gaussian workload
// (§5.1): "the Gaussian distribution would result if the load of a
// virtual server is attributed to a large number of small objects it
// stores and the individual loads on these objects are independent."
// The package lets experiments run with real object populations instead
// of sampled VS loads, and provides the churn (insert/delete) that
// drifts loads between balancing rounds — the regime periodic rounds
// (protocol.Every) face in examples/storage and the drift benchmark.
package objects

import (
	"fmt"
	"math/rand"
	"sort"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
)

// Object is one stored item.
type Object struct {
	Key  ident.ID
	Load float64
}

// Store maintains an object population over a ring and keeps the
// virtual servers' Load fields equal to the sum of their objects'
// loads.
type Store struct {
	ring *chord.Ring
	objs []Object // sorted by Key
}

// NewStore returns an empty store over ring.
func NewStore(ring *chord.Ring) *Store {
	return &Store{ring: ring}
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.objs) }

// TotalLoad returns the sum of all object loads.
func (s *Store) TotalLoad() float64 {
	var t float64
	for _, o := range s.objs {
		t += o.Load
	}
	return t
}

// Insert stores an object and credits its load to the owning virtual
// server.
func (s *Store) Insert(o Object) error {
	if o.Load < 0 {
		return fmt.Errorf("objects: negative load %v", o.Load)
	}
	vs := s.ring.Successor(o.Key)
	if vs == nil {
		return fmt.Errorf("objects: empty ring")
	}
	pos := sort.Search(len(s.objs), func(i int) bool { return !ident.Less(s.objs[i].Key, o.Key) })
	s.objs = append(s.objs, Object{})
	copy(s.objs[pos+1:], s.objs[pos:])
	s.objs[pos] = o
	vs.Load += o.Load
	return nil
}

// BulkInsert stores a batch of objects in one sort-and-merge pass.
// Semantically it equals calling Insert on each object in order — loads
// are credited to owners in the batch's given order, so the float sums
// match an Insert loop bit for bit — but it replaces the per-object
// O(n) copy-insert with one O(m log m) sort of the batch and a single
// linear merge into the key-sorted array. Populating millions of
// objects goes from quadratic to linearithmic; see BenchmarkInsertLoop
// vs BenchmarkBulkInsert.
func (s *Store) BulkInsert(objs []Object) error {
	if len(objs) == 0 {
		return nil
	}
	if s.ring.NumVServers() == 0 {
		return fmt.Errorf("objects: empty ring")
	}
	for _, o := range objs {
		if o.Load < 0 {
			return fmt.Errorf("objects: negative load %v", o.Load)
		}
	}
	// Credit owners in the caller's order, before sorting, so a caller
	// that switches from an Insert loop to BulkInsert sees identical
	// virtual-server loads (float addition is order-sensitive).
	for _, o := range objs {
		s.ring.Successor(o.Key).Load += o.Load
	}
	batch := make([]Object, len(objs))
	copy(batch, objs)
	sort.Slice(batch, func(i, j int) bool { return ident.Compare(batch[i].Key, batch[j].Key) < 0 })
	if len(s.objs) == 0 {
		s.objs = batch
		return nil
	}
	merged := make([]Object, 0, len(s.objs)+len(batch))
	i, j := 0, 0
	for i < len(s.objs) && j < len(batch) {
		if ident.Compare(s.objs[i].Key, batch[j].Key) <= 0 {
			merged = append(merged, s.objs[i])
			i++
		} else {
			merged = append(merged, batch[j])
			j++
		}
	}
	merged = append(merged, s.objs[i:]...)
	merged = append(merged, batch[j:]...)
	s.objs = merged
	return nil
}

// RemoveAt deletes the i-th object (in key order) and debits its load.
func (s *Store) RemoveAt(i int) (Object, error) {
	if i < 0 || i >= len(s.objs) {
		return Object{}, fmt.Errorf("objects: index %d out of range", i)
	}
	o := s.objs[i]
	s.objs = append(s.objs[:i], s.objs[i+1:]...)
	if vs := s.ring.Successor(o.Key); vs != nil {
		vs.Load -= o.Load
		if vs.Load < 0 {
			vs.Load = 0 // float dust
		}
	}
	return o, nil
}

// Objects returns the stored objects in key order. The returned slice
// must not be modified.
func (s *Store) Objects() []Object { return s.objs }

// SyncLoads recomputes every virtual server's load from scratch by
// scanning the object population once — the authoritative load
// assignment after ring membership changed (a removed virtual server's
// objects belong to its successor). Call it after churn, before a
// balancing round.
func (s *Store) SyncLoads() {
	vss := s.ring.VServers()
	for _, vs := range vss {
		vs.Load = 0
	}
	if len(vss) == 0 {
		return
	}
	// Objects and virtual servers are both sorted by identifier: merge.
	// Object o belongs to the first VS with ID >= o.Key (wrapping).
	i := 0
	for _, o := range s.objs {
		for i < len(vss) && ident.Compare(vss[i].ID, o.Key) < 0 { // i==len wrap handled below
			i++
		}
		if i == len(vss) {
			// Wraps around to the first VS.
			vss[0].Load += o.Load
			continue
		}
		vss[i].Load += o.Load
	}
}

// CheckLoads verifies that every virtual server's Load equals the sum
// of its objects' loads (within eps); it returns an error naming the
// first mismatch. Tests and long-running simulations call it to catch
// accounting drift.
func (s *Store) CheckLoads(eps float64) error {
	want := make([]float64, s.ring.NumSlots()) // by Slot: every server here is on the ring
	for _, o := range s.objs {
		want[s.ring.Successor(o.Key).Slot()] += o.Load
	}
	for _, vs := range s.ring.VServers() {
		w := want[vs.Slot()]
		if diff := vs.Load - w; diff < -eps || diff > eps {
			return fmt.Errorf("objects: VS %s load %v, objects sum to %v", vs.ID, vs.Load, w)
		}
	}
	return nil
}

// Populate bulk-inserts n objects with keys drawn uniformly from the
// identifier space and loads drawn from loadFn, then re-derives every
// virtual server's load in one pass (much faster than n Inserts).
func (s *Store) Populate(rng *rand.Rand, n int, loadFn func(*rand.Rand) float64) error {
	if s.ring.NumVServers() == 0 {
		return fmt.Errorf("objects: empty ring")
	}
	for i := 0; i < n; i++ {
		load := loadFn(rng)
		if load < 0 {
			return fmt.Errorf("objects: negative load %v", load)
		}
		s.objs = append(s.objs, Object{Key: ident.ID(rng.Uint32()), Load: load})
	}
	sort.Slice(s.objs, func(i, j int) bool { return ident.Compare(s.objs[i].Key, s.objs[j].Key) < 0 })
	s.SyncLoads()
	return nil
}

// Drift models workload change between balancing rounds: it removes
// `churn` uniformly random objects and inserts `churn` fresh ones with
// loads from loadFn. The total object count is preserved.
func (s *Store) Drift(rng *rand.Rand, churn int, loadFn func(*rand.Rand) float64) error {
	if churn > len(s.objs) {
		churn = len(s.objs)
	}
	for i := 0; i < churn; i++ {
		if _, err := s.RemoveAt(rng.Intn(len(s.objs))); err != nil {
			return err
		}
	}
	for i := 0; i < churn; i++ {
		if err := s.Insert(Object{
			Key:  ident.ID(rng.Uint32()),
			Load: loadFn(rng),
		}); err != nil {
			return err
		}
	}
	return nil
}

// ZipfLoads returns a loadFn with Zipf-distributed object popularity —
// a few hot objects and a long cold tail, the standard P2P object
// popularity model. Ranks are drawn from Zipf(s, v) over [0, imax];
// an object of rank r gets load proportional to 1/(r+1), scaled so the
// expected load is approximately mean.
func ZipfLoads(rng *rand.Rand, s, v float64, imax uint64, mean float64) func(*rand.Rand) float64 {
	z := rand.NewZipf(rng, s, v, imax)
	// E[1/(rank+1)] normalization: estimate once by sampling.
	var est float64
	const probes = 4096
	for i := 0; i < probes; i++ {
		est += 1 / (float64(z.Uint64()) + 1)
	}
	est /= probes
	return func(*rand.Rand) float64 {
		return mean / est / (float64(z.Uint64()) + 1)
	}
}
