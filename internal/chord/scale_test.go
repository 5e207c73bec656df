package chord

import (
	"math"
	"slices"
	"testing"

	"p2plb/internal/ident"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// orderListener counts ring-change callbacks and remembers the
// order VSAdded fired in.
type orderListener struct {
	added       []*VServer
	removed     int
	transferred int
}

func (l *orderListener) VSAdded(vs *VServer)                  { l.added = append(l.added, vs) }
func (l *orderListener) VSRemoved(*VServer)                   { l.removed++ }
func (l *orderListener) VSTransferred(*VServer, *Node, *Node) { l.transferred++ }

// TestBulkAddMatchesIncremental pins the determinism contract of the
// bulk path: at the same seed, BulkAddNodes must produce a ring
// identical to the equivalent AddNode loop — same RNG consumption, same
// identifiers, same hosting — so experiment results are byte-identical
// whichever path populated the ring.
func TestBulkAddMatchesIncremental(t *testing.T) {
	const nodes, vsPer = 300, 5
	engA := sim.NewEngine(9)
	a := NewRing(engA, Config{})
	for i := 0; i < nodes; i++ {
		a.AddNode(-1, 100+float64(engA.Rand().Intn(900)), vsPer)
	}
	engB := sim.NewEngine(9)
	b := NewRing(engB, Config{})
	b.BulkAddNodes(nodes, vsPer,
		func(int) topology.NodeID { return -1 },
		func(int) float64 { return 100 + float64(engB.Rand().Intn(900)) })

	a.CheckInvariants()
	b.CheckInvariants()
	va, vb := a.VServers(), b.VServers()
	if len(va) != len(vb) {
		t.Fatalf("VS counts differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i].ID != vb[i].ID {
			t.Fatalf("VS %d: ID %s vs %s", i, va[i].ID, vb[i].ID)
		}
		if va[i].Owner.Index != vb[i].Owner.Index {
			t.Fatalf("VS %d: owner %d vs %d", i, va[i].Owner.Index, vb[i].Owner.Index)
		}
		if va[i].Owner.Capacity != vb[i].Owner.Capacity {
			t.Fatalf("VS %d: owner capacity %v vs %v", i, va[i].Owner.Capacity, vb[i].Owner.Capacity)
		}
	}
	na, nb := a.Nodes(), b.Nodes()
	for i := range na {
		for j := range na[i].VServers() {
			if na[i].VServers()[j].ID != nb[i].VServers()[j].ID {
				t.Fatalf("node %d hosts different VS order", i)
			}
		}
	}
}

// TestBulkAddRejectsTakenIDs drives the bulk join's rejection path: at
// seed 1057 the engine's 1,441st draw repeats an earlier one, and the
// ring already holds three of the first draws (AddNodeWithIDs draws
// nothing). BulkAddNodes and an AddNode loop must both reject each of
// those four draws and draw again — so each consumes exactly four draws
// more than it joins — and end with identical rings.
func TestBulkAddRejectsTakenIDs(t *testing.T) {
	const seed, nodes, vsPer = 1057, 300, 5
	replay := sim.NewEngine(seed)
	draws := make([]ident.ID, nodes*vsPer+4+1)
	for i := range draws {
		draws[i] = ident.ID(replay.Rand().Uint32())
	}
	taken := []ident.ID{draws[0], draws[7], draws[8]}
	repeat := -1
	for i := range draws[:nodes*vsPer] {
		if slices.Contains(draws[:i], draws[i]) {
			repeat = i
			break
		}
	}
	if repeat < 0 || slices.Contains(taken, draws[repeat]) {
		t.Fatalf("seed %d repeats no draw the join accepted (repeat at %d); the test covers no in-batch rejection", seed, repeat)
	}
	build := func(bulk bool) (*Ring, *sim.Engine) {
		eng := sim.NewEngine(seed)
		r := NewRing(eng, Config{})
		if _, err := r.AddNodeWithIDs(-1, 100, taken); err != nil {
			t.Fatal(err)
		}
		if bulk {
			r.BulkAddNodes(nodes, vsPer, func(int) topology.NodeID { return -1 }, func(int) float64 { return 100 })
		} else {
			for range nodes {
				r.AddNode(-1, 100, vsPer)
			}
		}
		r.CheckInvariants()
		return r, eng
	}
	a, engA := build(false)
	b, engB := build(true)
	va, vb := a.VServers(), b.VServers()
	if len(va) != len(taken)+nodes*vsPer || len(vb) != len(va) {
		t.Fatalf("rings hold %d and %d virtual servers, want %d", len(va), len(vb), len(taken)+nodes*vsPer)
	}
	for i := range va {
		if va[i].ID != vb[i].ID || va[i].Owner.Index != vb[i].Owner.Index || va[i].Slot() != vb[i].Slot() {
			t.Fatalf("VS %d: %s on node %d in slot %d incrementally, %s on node %d in slot %d in bulk",
				i, va[i].ID, va[i].Owner.Index, va[i].Slot(), vb[i].ID, vb[i].Owner.Index, vb[i].Slot())
		}
	}
	next := draws[nodes*vsPer+4]
	if ga, gb := ident.ID(engA.Rand().Uint32()), ident.ID(engB.Rand().Uint32()); ga != next || gb != next {
		t.Fatalf("next draw %s incrementally and %s in bulk, want %s: the joins did not reject exactly four draws", ga, gb, next)
	}
}

// TestIDSetHoldsEveryKey: the bulk join's identifier set answers for
// every key it was given, 0 and 2^32-1 among them, and for no other,
// across keys that share a home slot.
func TestIDSetHoldsEveryKey(t *testing.T) {
	s := newIDSet(64)
	var in []ident.ID
	for i := 0; i < 64; i++ {
		id := ident.ID(uint32(i) << 26) // top bits vary little: homes collide
		if i%2 == 1 {
			id = ident.ID(uint32(i) * 0x01000193)
		}
		s.add(id)
		in = append(in, id)
	}
	s.add(math.MaxUint32)
	s.add(in[3]) // a second add counts once
	in = append(in, math.MaxUint32)
	if s.n != len(in) {
		t.Fatalf("set counts %d members, want %d", s.n, len(in))
	}
	for _, id := range in {
		if !s.has(id) {
			t.Fatalf("set lost %s", id)
		}
	}
	for _, id := range []ident.ID{1, 1 << 25, math.MaxUint32 - 1} {
		if s.has(id) {
			t.Fatalf("set holds %s, never added", id)
		}
	}
}

// TestBulkAddAllocsPerCall: a bulk join allocates a fixed set of arrays,
// however many nodes join; one allocation a node or a virtual server
// would show as a tenfold larger join allocating more.
func TestBulkAddAllocsPerCall(t *testing.T) {
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(3, func() {
			r := NewRing(sim.NewEngine(1), Config{})
			r.BulkAddNodes(count, 5, func(int) topology.NodeID { return -1 }, func(int) float64 { return 100 })
		})
	}
	small, large := allocs(1000), allocs(10000)
	t.Logf("%.0f allocations joining 5,000 virtual servers, %.0f joining 50,000", small, large)
	if large > small {
		t.Errorf("joining 50,000 virtual servers made %.0f allocations, 5,000 made %.0f: the count grows with the join", large, small)
	}
}

// BenchmarkBulkAdd128k is the bulk join at the round-oracle-128k
// fixture's size: 25,600 nodes × 5 virtual servers join an empty ring,
// each node's capacity drawn from the engine between its identifiers.
func BenchmarkBulkAdd128k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		r := NewRing(eng, Config{})
		r.BulkAddNodes(25600, 5, func(int) topology.NodeID { return -1 },
			func(int) float64 { return 100 + float64(eng.Rand().Intn(900)) })
	}
}

// TestBulkAddIntoExistingRing merges a bulk batch into a ring that
// already has members and checks the listener contract: one VSAdded per
// fresh VS, in draw order, each fired against the fully merged ring.
func TestBulkAddIntoExistingRing(t *testing.T) {
	eng := sim.NewEngine(11)
	r := NewRing(eng, Config{})
	r.AddNode(-1, 100, 5)
	rec := &orderListener{}
	r.Subscribe(rec)
	nodes := r.BulkAddNodes(50, 3,
		func(int) topology.NodeID { return -1 },
		func(int) float64 { return 100 })
	r.CheckInvariants()
	if len(nodes) != 50 || r.NumVServers() != 5+150 {
		t.Fatalf("got %d nodes, %d VSs", len(nodes), r.NumVServers())
	}
	if len(rec.added) != 150 {
		t.Fatalf("VSAdded fired %d times, want 150", len(rec.added))
	}
	// Draw order groups a node's virtual servers together.
	for i, vs := range rec.added {
		if vs.Owner != nodes[i/3] {
			t.Fatalf("VSAdded %d fired for node %d, want %d", i, vs.Owner.Index, nodes[i/3].Index)
		}
		if r.RegionOf(vs).Width == 0 {
			t.Fatalf("VSAdded %d fired before the ring was consistent", i)
		}
	}
	// Index continues densely across the bulk batch.
	for i, n := range nodes {
		if n.Index != 1+i {
			t.Fatalf("node %d has index %d", i, n.Index)
		}
	}
}

// TestFirstFreeFromWrap exercises the saturation fallback scan on a
// dense cluster that straddles the 0 / 2^32−1 seam.
func TestFirstFreeFromWrap(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRing(eng, Config{})
	const top = ident.ID(math.MaxUint32)
	//lbvet:ignore identcompare constant fixture identifiers next to the seam, no wrap involved
	if _, err := r.AddNodeWithIDs(-1, 100, []ident.ID{0, 1, 2, top - 1, top}); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ start, want ident.ID }{
		{top - 1, 3}, //lbvet:ignore identcompare constant fixture identifier below the seam
		{top, 3},
		{0, 3},
		{2, 3},
		{3, 3},             // already free
		{5, 5},             // free gap mid-space
		{top - 4, top - 4}, //lbvet:ignore identcompare constant fixture identifier below the seam
	}
	for _, c := range cases {
		if got := r.firstFreeFrom(c.start); got != c.want {
			t.Errorf("firstFreeFrom(%s) = %s, want %s", c.start, got, c.want)
		}
	}
	// Empty ring: any start is free.
	empty := NewRing(sim.NewEngine(1), Config{})
	if got := empty.firstFreeFrom(42); got != 42 {
		t.Errorf("firstFreeFrom on empty ring = %s, want 42", got)
	}
}

// TestRandomFreeIDBoundedRetries forces the rejection-sampling bound:
// occupy exactly the identifiers the engine will draw so every one of
// the maxIDDraws attempts collides, and check the allocator falls back
// to the first-free-gap scan instead of spinning.
func TestRandomFreeIDBoundedRetries(t *testing.T) {
	const seed = 77
	// Replay the exact draw sequence randomFreeID will consume.
	scratch := sim.NewEngine(seed)
	draws := make([]ident.ID, maxIDDraws+1)
	for i := range draws {
		draws[i] = ident.ID(scratch.Rand().Uint32())
	}
	occupied := map[ident.ID]bool{}
	var ids []ident.ID
	for _, id := range draws[:maxIDDraws] {
		if !occupied[id] {
			occupied[id] = true
			ids = append(ids, id)
		}
	}
	// Occupy a short run after the fallback start so the scan has to
	// walk past it.
	start := draws[maxIDDraws]
	for _, id := range []ident.ID{start, start.Add(1), start.Add(2)} {
		if !occupied[id] {
			occupied[id] = true
			ids = append(ids, id)
		}
	}
	want := start
	for occupied[want] {
		want = want.Add(1)
	}

	eng := sim.NewEngine(seed)
	r := NewRing(eng, Config{})
	if _, err := r.AddNodeWithIDs(-1, 100, ids); err != nil {
		t.Fatal(err)
	}
	got := r.randomFreeID()
	if got != want {
		t.Fatalf("randomFreeID = %s, want fallback scan result %s", got, want)
	}
	if occupied[got] {
		t.Fatalf("randomFreeID returned occupied identifier %s", got)
	}

	// The bulk path's allocator must take the same fallback against its
	// pending set.
	eng2 := sim.NewEngine(seed)
	r2 := NewRing(eng2, Config{})
	used := newIDSet(len(occupied))
	for id := range occupied {
		used.add(id)
	}
	if got := r2.drawFreeID(used); got != want {
		t.Fatalf("drawFreeID = %s, want %s", got, want)
	}
}

// TestLazyPosCacheMixedOps drives add/remove/transfer sequences and
// checks after every step that lazily revalidated positions agree with
// the array — the invariant the epoch cache must maintain.
func TestLazyPosCacheMixedOps(t *testing.T) {
	eng := sim.NewEngine(3)
	r := NewRing(eng, Config{})
	for i := 0; i < 32; i++ {
		r.AddNode(-1, 100, 4)
	}
	rng := eng.Rand()
	for step := 0; step < 200; step++ {
		alive := r.AliveNodes()
		switch step % 4 {
		case 0:
			r.AddNode(-1, 100, 2)
		case 1:
			r.RemoveNode(alive[rng.Intn(len(alive))])
		case 2:
			from := alive[rng.Intn(len(alive))]
			to := alive[rng.Intn(len(alive))]
			if vs := from.RandomVS(rng); vs != nil {
				r.Transfer(vs, to)
			}
		case 3:
			vss := r.VServers()
			vs := vss[rng.Intn(len(vss))]
			// Positional reads through stale caches must agree with
			// ground truth.
			pred := r.Predecessor(vs)
			if r.Successor(pred.ID.Add(1)) != vs && pred != vs {
				t.Fatalf("step %d: predecessor/successor disagree", step)
			}
			if !r.RegionOf(vs).Contains(vs.ID) {
				t.Fatalf("step %d: region does not contain own ID", step)
			}
		}
		r.CheckInvariants()
	}
}

// TestPosPanicsOffRing pins the failure mode: positional queries on a
// departed virtual server are caller bugs and must fail loudly, not
// return a stale index.
func TestPosPanicsOffRing(t *testing.T) {
	r := newTestRing(t, 5, 8, 2)
	vs := r.VServers()[3]
	r.RemoveVServer(vs)
	defer func() {
		if recover() == nil {
			t.Fatal("Predecessor of a removed VS did not panic")
		}
	}()
	r.Predecessor(vs)
}

// TestTopologyLatencyRejectsNegativeUnderlay pins the churn-joiner bug:
// a node carrying the -1 "no underlay" sentinel must be rejected with a
// clear panic instead of indexing outside the distance tables.
func TestTopologyLatencyRejectsNegativeUnderlay(t *testing.T) {
	lat := TopologyLatency(nil) // panics before touching the distances
	a := &Node{Index: 0, Underlay: -1}
	b := &Node{Index: 1, Underlay: 3}
	if got := lat(a, a); got != 0 {
		t.Fatalf("self latency = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative underlay did not panic")
		}
	}()
	lat(a, b)
}
