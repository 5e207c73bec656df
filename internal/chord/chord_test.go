package chord

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"p2plb/internal/ident"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

func newTestRing(t *testing.T, seed int64, nodes, vsPerNode int) *Ring {
	t.Helper()
	eng := sim.NewEngine(seed)
	r := NewRing(eng, Config{})
	for i := 0; i < nodes; i++ {
		r.AddNode(-1, 100, vsPerNode)
	}
	r.CheckInvariants()
	return r
}

func TestAddNodeCreatesVSs(t *testing.T) {
	r := newTestRing(t, 1, 16, 5)
	if got := r.NumVServers(); got != 80 {
		t.Fatalf("NumVServers = %d, want 80", got)
	}
	if len(r.AliveNodes()) != 16 {
		t.Fatalf("AliveNodes = %d", len(r.AliveNodes()))
	}
	for _, n := range r.Nodes() {
		if len(n.VServers()) != 5 {
			t.Fatalf("node %d hosts %d VSs", n.Index, len(n.VServers()))
		}
		for _, vs := range n.VServers() {
			if vs.Owner != n {
				t.Fatal("owner back-link wrong")
			}
		}
	}
}

func TestRegionsPartitionCircle(t *testing.T) {
	r := newTestRing(t, 2, 32, 4)
	var total uint64
	for _, vs := range r.VServers() {
		reg := r.RegionOf(vs)
		if !reg.Contains(vs.ID) {
			t.Fatalf("region %v does not contain own id %s", reg, vs.ID)
		}
		total += reg.Width
	}
	if total != ident.SpaceSize {
		t.Fatalf("regions cover %d, want %d", total, ident.SpaceSize)
	}
}

func TestSuccessorOwnership(t *testing.T) {
	r := newTestRing(t, 3, 20, 5)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		key := ident.ID(rng.Uint32())
		vs := r.Successor(key)
		if !r.RegionOf(vs).Contains(key) {
			t.Fatalf("successor of %s is %s but region %v misses the key",
				key, vs.ID, r.RegionOf(vs))
		}
	}
}

// TestNumVServersIn checks the two-binary-search count against a scan,
// on regions that wrap, end at the top of the space, are empty or full.
func TestNumVServersIn(t *testing.T) {
	r := newTestRing(t, 5, 24, 4)
	rng := rand.New(rand.NewSource(5))
	regions := []ident.Region{
		ident.Full(),
		{Start: 12345, Width: 0},
		{Start: 0, Width: 1 << 31},
		{Start: 1 << 31, Width: 1 << 31}, // ends exactly at the top
		{Start: ident.ID(1<<32 - 10), Width: 20},
	}
	for i := 0; i < 200; i++ {
		regions = append(regions, ident.Region{Start: ident.ID(rng.Uint32()), Width: uint64(rng.Int63n(int64(ident.SpaceSize) + 1))})
	}
	for _, vs := range r.VServers() {
		regions = append(regions, r.RegionOf(vs), ident.Region{Start: vs.ID, Width: 1})
	}
	for _, reg := range regions {
		want := 0
		for _, vs := range r.VServers() {
			if reg.Contains(vs.ID) {
				want++
			}
		}
		if got := r.NumVServersIn(reg); got != want {
			t.Fatalf("NumVServersIn(%v) = %d, a scan counts %d", reg, got, want)
		}
	}
}

func TestSuccessorEmptyRing(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	if r.Successor(42) != nil {
		t.Fatal("Successor on empty ring should be nil")
	}
}

func TestAddNodeWithIDs(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	n, err := r.AddNodeWithIDs(-1, 10, []ident.ID{100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.VServers()) != 3 {
		t.Fatal("wrong VS count")
	}
	if _, err := r.AddNodeWithIDs(-1, 10, []ident.ID{200}); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	if _, err := r.AddNodeWithIDs(-1, 10, []ident.ID{400, 400}); err == nil {
		t.Fatal("duplicate id within request must be rejected")
	}
	r.CheckInvariants()
	// Single-node predecessor wraps to itself via ring order.
	vs := r.Successor(150)
	if vs.ID != 200 {
		t.Fatalf("Successor(150) = %s, want 00000c8", vs.ID)
	}
}

func TestSingleVSOwnsEverything(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	r.AddNodeWithIDs(-1, 10, []ident.ID{5000})
	vs := r.VServers()[0]
	if !r.RegionOf(vs).IsFull() {
		t.Fatalf("single VS region = %v, want full", r.RegionOf(vs))
	}
	for _, key := range []ident.ID{0, 5000, 5001, 0xffffffff} {
		if r.Successor(key) != vs {
			t.Fatalf("key %s not owned by the only VS", key)
		}
	}
}

func TestNodeLoadAccessors(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	n, _ := r.AddNodeWithIDs(-1, 10, []ident.ID{1, 2, 3})
	loads := []float64{5, 2, 9}
	for i, vs := range n.VServers() {
		vs.Load = loads[i]
	}
	if got := n.TotalLoad(); got != 16 {
		t.Fatalf("TotalLoad = %v", got)
	}
	min, ok := n.MinVSLoad()
	if !ok || min != 2 {
		t.Fatalf("MinVSLoad = %v/%v", min, ok)
	}
	empty := &Node{}
	if _, ok := empty.MinVSLoad(); ok {
		t.Fatal("empty node should report no min load")
	}
	if empty.RandomVS(rand.New(rand.NewSource(1))) != nil {
		t.Fatal("empty node RandomVS should be nil")
	}
	if empty.TotalLoad() != 0 {
		t.Fatal("empty node load should be 0")
	}
}

func TestRemoveNodeAbsorbsLoad(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	a, _ := r.AddNodeWithIDs(-1, 10, []ident.ID{100})
	b, _ := r.AddNodeWithIDs(-1, 10, []ident.ID{200})
	a.VServers()[0].Load = 7
	b.VServers()[0].Load = 3
	r.RemoveNode(a)
	r.CheckInvariants()
	if a.Alive {
		t.Fatal("removed node still alive")
	}
	if len(r.VServers()) != 1 {
		t.Fatalf("VS count = %d", len(r.VServers()))
	}
	if got := b.VServers()[0].Load; got != 10 {
		t.Fatalf("successor load = %v, want 10 (absorbed)", got)
	}
	if !r.RegionOf(b.VServers()[0]).IsFull() {
		t.Fatal("survivor should own the full circle")
	}
	// Removing again is a no-op.
	r.RemoveNode(a)
	r.CheckInvariants()
}

func TestRemoveMiddleNodeRegions(t *testing.T) {
	r := newTestRing(t, 5, 10, 3)
	nodes := r.AliveNodes()
	victim := nodes[4]
	before := r.NumVServers()
	r.RemoveNode(victim)
	r.CheckInvariants()
	if r.NumVServers() != before-3 {
		t.Fatalf("VS count %d after removal, want %d", r.NumVServers(), before-3)
	}
	var total uint64
	for _, vs := range r.VServers() {
		total += r.RegionOf(vs).Width
	}
	if total != ident.SpaceSize {
		t.Fatal("regions no longer partition the circle")
	}
}

func TestTransferKeepsRing(t *testing.T) {
	r := newTestRing(t, 6, 8, 4)
	nodes := r.AliveNodes()
	from, to := nodes[0], nodes[1]
	vs := from.VServers()[0]
	vs.Load = 11
	id := vs.ID
	regionBefore := r.RegionOf(vs)
	r.Transfer(vs, to)
	r.CheckInvariants()
	if vs.Owner != to {
		t.Fatal("owner not updated")
	}
	if len(from.VServers()) != 3 || len(to.VServers()) != 5 {
		t.Fatalf("host lists wrong: %d/%d", len(from.VServers()), len(to.VServers()))
	}
	if vs.ID != id || r.RegionOf(vs) != regionBefore || vs.Load != 11 {
		t.Fatal("transfer must not change identifier, region, or load")
	}
	// Self transfer is a no-op.
	r.Transfer(vs, to)
	r.CheckInvariants()
}

// mustPanic requires f to panic with a message naming op.
func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, op+" on a ring whose membership is frozen") {
			t.Errorf("%s on a frozen ring: panic %q, want one naming %s", op, msg, op)
		}
	}()
	f()
}

// TestFreezeMembership: every membership change panics on a frozen
// ring — a VS-less node's removal too — while transfers and lookups
// still work; a thaw counts once, and nested freezes need every thaw.
func TestFreezeMembership(t *testing.T) {
	r := newTestRing(t, 9, 8, 3)
	empty, err := r.AddNodeWithIDs(-1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	thaw := r.FreezeMembership()
	if !r.MembershipFrozen() {
		t.Fatal("ring not frozen after FreezeMembership")
	}
	nodes := r.AliveNodes()
	mustPanic(t, "AddNode", func() { r.AddNode(-1, 10, 2) })
	mustPanic(t, "AddNodeWithIDs", func() { _, _ = r.AddNodeWithIDs(-1, 10, []ident.ID{7}) })
	mustPanic(t, "BulkAddNodes", func() {
		r.BulkAddNodes(2, 2, func(int) topology.NodeID { return -1 }, func(int) float64 { return 10 })
	})
	mustPanic(t, "RemoveNode", func() { r.RemoveNode(nodes[0]) })
	mustPanic(t, "RemoveNode", func() { r.RemoveNode(empty) })
	mustPanic(t, "RemoveVServer", func() { r.RemoveVServer(nodes[1].VServers()[0]) })
	if !empty.Alive || len(r.AliveNodes()) != 9 || r.NumVServers() != 24 {
		t.Fatalf("a refused change left a trace: empty alive %v, %d nodes, %d VSs",
			empty.Alive, len(r.AliveNodes()), r.NumVServers())
	}
	r.CheckInvariants()

	vs := nodes[0].VServers()[0]
	r.Transfer(vs, nodes[1])
	if vs.Owner != nodes[1] {
		t.Fatal("Transfer on a frozen ring did not re-home the VS")
	}
	var got *VServer
	r.Lookup(nodes[2], vs.ID, func(res LookupResult) { got = res.VS })
	r.Engine().Run()
	if want := r.Successor(vs.ID); got != want {
		t.Fatalf("Lookup on a frozen ring landed on %v, want %v", got, want)
	}

	inner := r.FreezeMembership()
	thaw()
	thaw() // a second call is a no-op, not a second thaw
	if !r.MembershipFrozen() {
		t.Fatal("outer thaw (twice) released a nested freeze")
	}
	mustPanic(t, "RemoveNode", func() { r.RemoveNode(empty) })
	inner()
	if r.MembershipFrozen() {
		t.Fatal("ring still frozen after every thaw")
	}
	r.RemoveNode(empty)
	r.AddNode(-1, 10, 2)
	r.CheckInvariants()
}

type recordingListener struct {
	added, removed int
	transferred    int
}

func (l *recordingListener) VSAdded(*VServer)                     { l.added++ }
func (l *recordingListener) VSRemoved(*VServer)                   { l.removed++ }
func (l *recordingListener) VSTransferred(*VServer, *Node, *Node) { l.transferred++ }

func TestListeners(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	var l recordingListener
	r.Subscribe(&l)
	a := r.AddNode(-1, 10, 3)
	b := r.AddNode(-1, 10, 2)
	r.Transfer(a.VServers()[0], b)
	r.RemoveNode(a)
	if l.added != 5 || l.transferred != 1 || l.removed != 2 {
		t.Fatalf("listener saw %d/%d/%d, want 5/1/2", l.added, l.transferred, l.removed)
	}
}

func TestLookupRoutedMatchesSuccessor(t *testing.T) {
	r := newTestRing(t, 7, 64, 5)
	eng := r.Engine()
	rng := rand.New(rand.NewSource(3))
	nodes := r.AliveNodes()
	for i := 0; i < 200; i++ {
		key := ident.ID(rng.Uint32())
		from := nodes[rng.Intn(len(nodes))]
		want := r.Successor(key)
		done := false
		r.Lookup(from, key, func(res LookupResult) {
			done = true
			if res.VS != want {
				t.Errorf("lookup(%s) = %s, want %s", key, res.VS.ID, want.ID)
			}
			if res.Hops < 1 || res.Cost < sim.Time(res.Hops) {
				t.Errorf("implausible hops/cost: %d/%d", res.Hops, res.Cost)
			}
		})
		eng.Run()
		if !done {
			t.Fatal("lookup never completed")
		}
	}
}

func TestLookupHopCountLogarithmic(t *testing.T) {
	// With N VSs, Chord lookups should take O(log2 N) hops; check the
	// average is in a sane band.
	r := newTestRing(t, 8, 256, 4) // 1024 VSs
	eng := r.Engine()
	rng := rand.New(rand.NewSource(4))
	nodes := r.AliveNodes()
	var totalHops int
	const trials = 300
	for i := 0; i < trials; i++ {
		key := ident.ID(rng.Uint32())
		from := nodes[rng.Intn(len(nodes))]
		r.Lookup(from, key, func(res LookupResult) { totalHops += res.Hops })
		eng.Run()
	}
	avg := float64(totalHops) / trials
	logN := math.Log2(1024)
	if avg < 1 || avg > 2*logN {
		t.Errorf("average hops %.2f outside (1, %.1f)", avg, 2*logN)
	}
}

func TestLookupCountsMessages(t *testing.T) {
	r := newTestRing(t, 9, 32, 4)
	eng := r.Engine()
	r.Lookup(r.AliveNodes()[0], 0x12345678, func(LookupResult) {})
	eng.Run()
	if eng.MessageCount(MsgLookupHop) < 1 {
		t.Fatal("lookup hops not counted")
	}
}

func TestLookupSurvivesChurn(t *testing.T) {
	// Remove nodes while lookups are in flight; every lookup must still
	// terminate and return the then-current owner of the key.
	r := newTestRing(t, 10, 64, 4)
	eng := r.Engine()
	rng := rand.New(rand.NewSource(5))
	nodes := r.AliveNodes()
	completed := 0
	for i := 0; i < 50; i++ {
		key := ident.ID(rng.Uint32())
		from := nodes[rng.Intn(16)]
		r.Lookup(from, key, func(res LookupResult) {
			completed++
			if !r.RegionOf(res.VS).Contains(key) {
				t.Errorf("post-churn lookup returned non-owner of %s", key)
			}
		})
	}
	// Interleave removals with event processing.
	for i := 0; i < 10; i++ {
		victim := r.AliveNodes()[rng.Intn(len(r.AliveNodes())-1)+1]
		r.RemoveNode(victim)
		for j := 0; j < 20; j++ {
			eng.Step()
		}
	}
	eng.Run()
	if completed != 50 {
		t.Fatalf("only %d/50 lookups completed under churn", completed)
	}
}

func TestConstantAndTopologyLatency(t *testing.T) {
	cl := ConstantLatency(5)
	if cl(nil, nil) != 5 {
		t.Fatal("ConstantLatency wrong")
	}
}

func TestLookupFromVSLessNode(t *testing.T) {
	r := newTestRing(t, 11, 8, 3)
	n := r.AddNode(-1, 10, 0) // observer node with no virtual servers
	done := false
	r.Lookup(n, 777, func(res LookupResult) {
		done = true
		if !r.RegionOf(res.VS).Contains(777) {
			t.Error("wrong owner")
		}
	})
	r.Engine().Run()
	if !done {
		t.Fatal("lookup from VS-less node did not complete")
	}
}

func TestRandomVSDistribution(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	n, _ := r.AddNodeWithIDs(-1, 10, []ident.ID{1, 2, 3, 4})
	rng := rand.New(rand.NewSource(6))
	counts := map[ident.ID]int{}
	for i := 0; i < 4000; i++ {
		counts[n.RandomVS(rng).ID]++
	}
	for id, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("VS %s chosen %d times, want ~1000", id, c)
		}
	}
}

func BenchmarkBuildRing4096x5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		r := NewRing(eng, Config{})
		for j := 0; j < 4096; j++ {
			r.AddNode(-1, 100, 5)
		}
	}
}

func BenchmarkRoutedLookup(b *testing.B) {
	eng := sim.NewEngine(1)
	r := NewRing(eng, Config{})
	for j := 0; j < 1024; j++ {
		r.AddNode(-1, 100, 5)
	}
	nodes := r.AliveNodes()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(nodes[rng.Intn(len(nodes))], ident.ID(rng.Uint32()), func(LookupResult) {})
		eng.Run()
	}
}

// BenchmarkRoutedLookupCached is BenchmarkRoutedLookup through a warm
// LookupCache: every lookup is a validated single-hop hit.
func BenchmarkRoutedLookupCached(b *testing.B) {
	eng := sim.NewEngine(1)
	r := NewRing(eng, Config{})
	for j := 0; j < 1024; j++ {
		r.AddNode(-1, 100, 5)
	}
	cache := NewLookupCache(r, 128)
	nodes := r.AliveNodes()
	rng := rand.New(rand.NewSource(2))
	keys := make([]ident.ID, 64)
	for i := range keys {
		keys[i] = ident.ID(rng.Uint32())
	}
	for _, n := range nodes[:64] {
		for _, key := range keys {
			r.CachedLookup(cache, n, key, func(LookupResult) {})
		}
	}
	eng.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CachedLookup(cache, nodes[rng.Intn(64)], keys[rng.Intn(len(keys))], func(LookupResult) {})
		eng.Run()
	}
}

// fullScanPreceding is closestPreceding probing all 32 fingers, from
// the farthest down: the reference for where the scan starts.
func fullScanPreceding(r *Ring, cur *VServer, key ident.ID) *VServer {
	succ := r.Successor(cur.ID.Add(1))
	if key.Between(cur.ID, succ.ID) {
		return nil
	}
	for k := ident.Bits - 1; k >= 0; k-- {
		f := r.Successor(cur.ID.Add(uint64(1) << uint(k)))
		if f == cur {
			continue
		}
		if f.ID != key && f.ID.Between(cur.ID, key) {
			return f
		}
	}
	return succ
}

// TestClosestPrecedingMatchesFullScan holds the finger scan that starts
// at the first finger short of the key to the one that probes all 32,
// from every virtual server of rings of 1 to 5,000, on random keys and
// on the edges: the key at cur, just past it, at cur's predecessor and
// at either side of the 0 / 2^32−1 seam.
func TestClosestPrecedingMatchesFullScan(t *testing.T) {
	const top = ident.ID(math.MaxUint32)
	rings := []*Ring{}
	for _, ids := range [][]ident.ID{
		{ident.ID(math.MaxUint32 - 3)},
		{5, top},
		{0, 1 << 31, ident.ID(math.MaxUint32 - 1)},
	} {
		r := NewRing(sim.NewEngine(1), Config{})
		if _, err := r.AddNodeWithIDs(-1, 10, ids); err != nil {
			t.Fatal(err)
		}
		rings = append(rings, r)
	}
	rings = append(rings, newTestRing(t, 13, 16, 4), newTestRing(t, 14, 1000, 5))
	rng := rand.New(rand.NewSource(15))
	for _, r := range rings {
		keysPer := 24
		if r.NumVServers() > 1000 {
			keysPer = 4
		}
		for _, cur := range r.VServers() {
			keys := []ident.ID{cur.ID, cur.ID.Add(1), r.Predecessor(cur).ID, 0, top, cur.ID.Add(1 << 31)}
			for i := 0; i < keysPer; i++ {
				keys = append(keys, ident.ID(rng.Uint32()))
			}
			for _, key := range keys {
				if got, want := r.closestPreceding(cur, key), fullScanPreceding(r, cur, key); got != want {
					t.Fatalf("%d VSs, cur %s, key %s: closestPreceding %v, full scan %v", r.NumVServers(), cur.ID, key, got, want)
				}
			}
		}
	}
}

// TestWarmLookupsAllocateNothing guards the pooled hop: once the free
// list and the event queue are warm, a routed lookup on a static ring
// and a cached hit allocate nothing.
func TestWarmLookupsAllocateNothing(t *testing.T) {
	r := newTestRing(t, 16, 256, 4)
	eng := r.Engine()
	cache := NewLookupCache(r, 64)
	nodes := r.AliveNodes()
	rng := rand.New(rand.NewSource(17))
	keys := make([]ident.ID, 32)
	for i := range keys {
		keys[i] = ident.ID(rng.Uint32())
	}
	var got *VServer
	cb := func(res LookupResult) { got = res.VS }
	origin := nodes[3]
	for _, key := range keys {
		r.CachedLookup(cache, origin, key, cb) // misses: warm the cache
		eng.Run()
	}
	i := 0
	next := func() (*Node, ident.ID) {
		i++
		return nodes[i%len(nodes)], keys[i%len(keys)]
	}
	routed := testing.AllocsPerRun(200, func() {
		from, key := next()
		r.Lookup(from, key, cb)
		eng.Run()
		if got != r.Successor(key) {
			t.Fatalf("lookup(%s) = %s", key, got.ID)
		}
	})
	hits0, _, _ := cache.Stats()
	cached := testing.AllocsPerRun(200, func() {
		_, key := next()
		r.CachedLookup(cache, origin, key, cb)
		eng.Run()
		if got != r.Successor(key) {
			t.Fatalf("cached lookup(%s) = %s", key, got.ID)
		}
	})
	if hits, _, _ := cache.Stats(); hits-hits0 != 201 {
		t.Fatalf("%d of 201 cached lookups hit", hits-hits0)
	}
	if routed != 0 || cached != 0 {
		t.Fatalf("warm lookups allocate: routed %v, cached hit %v a lookup", routed, cached)
	}
}

func TestTopologyLatencyModel(t *testing.T) {
	g, err := topology.Generate(topology.Params{
		TransitDomains:        2,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   2,
		StubDomainSizeMean:    4,
		TransitEdgeProb:       0.5,
		TransitDomainEdgeProb: 1,
		StubEdgeProb:          0.5,
		Seed:                  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := topology.NewDistancesMetric(g, topology.LatencyMetric)
	lat := TopologyLatency(dist)
	eng := sim.NewEngine(1)
	ring := NewRing(eng, Config{Latency: lat})
	stubs := g.StubNodes()
	a := ring.AddNode(stubs[0], 10, 2)
	b := ring.AddNode(stubs[len(stubs)-1], 10, 2)
	c := ring.AddNode(stubs[0], 10, 2) // co-located with a
	if got := lat(a, a); got != 0 {
		t.Errorf("self latency = %d", got)
	}
	if got := lat(a, c); got != 0 {
		t.Errorf("co-located latency = %d", got)
	}
	want := sim.Time(dist.Between(stubs[0], stubs[len(stubs)-1]))
	if got := lat(a, b); got != want {
		t.Errorf("latency a-b = %d, want %d", got, want)
	}
	if got := lat(b, a); got != want {
		t.Errorf("latency not symmetric: %d vs %d", lat(b, a), want)
	}
	// Routed lookups under the topology model accumulate underlay cost.
	done := false
	ring.Lookup(a, 0x55555555, func(res LookupResult) {
		done = true
		if res.Cost < sim.Time(res.Hops) {
			t.Errorf("cost %d below hop floor %d", res.Cost, res.Hops)
		}
	})
	eng.Run()
	if !done {
		t.Fatal("lookup under topology latency never completed")
	}
}

// TestCheckConservationClean verifies the checker accepts a healthy ring
// through the legitimate membership operations: transfers (load moves,
// total unchanged), crashes (successor absorbs the departed load) and
// joins (new VSs enter with zero load).
func TestCheckConservationClean(t *testing.T) {
	r := NewRing(sim.NewEngine(1), Config{})
	for i := 0; i < 5; i++ {
		r.AddNode(-1, 100, 3)
	}
	for i, vs := range r.VServers() {
		vs.Load = float64(i + 1)
	}
	base := r.SnapshotConservation()
	if base.NumVS != 15 {
		t.Fatalf("snapshot NumVS = %d, want 15", base.NumVS)
	}
	if err := r.CheckConservation(base); err != nil {
		t.Fatalf("fresh ring fails conservation: %v", err)
	}

	r.Transfer(r.VServers()[0], r.Nodes()[4])
	if err := r.CheckConservation(base); err != nil {
		t.Fatalf("after transfer: %v", err)
	}

	r.RemoveNode(r.Nodes()[2])
	if err := r.CheckConservation(base); err != nil {
		t.Fatalf("after crash: %v", err)
	}

	r.AddNode(-1, 80, 2)
	if err := r.CheckConservation(base); err != nil {
		t.Fatalf("after join: %v", err)
	}
}

// TestCheckConservationViolations manufactures each failure mode the
// checker exists to catch and asserts it is reported.
func TestCheckConservationViolations(t *testing.T) {
	build := func() *Ring {
		r := NewRing(sim.NewEngine(2), Config{})
		for i := 0; i < 3; i++ {
			r.AddNode(-1, 100, 2)
		}
		for _, vs := range r.VServers() {
			vs.Load = 10
		}
		return r
	}

	r := build()
	base := r.SnapshotConservation()

	// Lost: the owner's book no longer lists the VS.
	r1 := build()
	n := r1.Nodes()[0]
	n.vservers = n.vservers[1:]
	if err := r1.CheckConservation(base); err == nil {
		t.Error("lost VS not detected")
	}

	// Double-hosted: a second node's book lists a VS it does not own.
	r2 := build()
	stray := r2.Nodes()[0].vservers[0]
	r2.Nodes()[1].vservers = append(r2.Nodes()[1].vservers, stray)
	if err := r2.CheckConservation(base); err == nil {
		t.Error("double-hosted VS not detected")
	}

	// Load drift: total load changed with no membership excuse.
	r3 := build()
	r3.VServers()[0].Load += 7
	if err := r3.CheckConservation(base); err == nil {
		t.Error("load drift not detected")
	}

	// Negative load.
	r4 := build()
	r4.VServers()[0].Load = -1
	if err := r4.CheckConservation(r4.SnapshotConservation()); err == nil {
		t.Error("negative load not detected")
	}

	// Dead owner still holding a live VS.
	r5 := build()
	r5.Nodes()[0].Alive = false
	if err := r5.CheckConservation(base); err == nil {
		t.Error("dead owner not detected")
	}
}
