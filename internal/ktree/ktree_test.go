package ktree

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func buildRing(seed int64, nodes, vsPerNode int) *chord.Ring {
	eng := sim.NewEngine(seed)
	r := chord.NewRing(eng, chord.Config{})
	for i := 0; i < nodes; i++ {
		r.AddNode(-1, 100, vsPerNode)
	}
	return r
}

func buildTree(t *testing.T, ring *chord.Ring, k int) *Tree {
	t.Helper()
	tree, err := New(ring, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	return tree
}

func TestNewValidation(t *testing.T) {
	ring := buildRing(1, 2, 2)
	if _, err := New(ring, 1); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	empty := chord.NewRing(sim.NewEngine(1), chord.Config{})
	tree, _ := New(empty, 2)
	if err := tree.Build(); err == nil {
		t.Fatal("building over empty ring must fail")
	}
	if _, err := tree.Repair(); err == nil {
		t.Fatal("repairing over empty ring must fail")
	}
}

func TestBuildSingleVS(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	ring.AddNodeWithIDs(-1, 10, []ident.ID{12345})
	tree := buildTree(t, ring, 2)
	if !tree.IsLeaf(tree.Root()) {
		t.Fatal("single-VS tree should be just a root leaf")
	}
	if tree.NumNodes() != 1 || tree.NumLeaves() != 1 || tree.Height() != 0 {
		t.Fatalf("tree stats %d/%d/%d", tree.NumNodes(), tree.NumLeaves(), tree.Height())
	}
}

func TestEveryVSHostsALeaf(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, k := range []int{2, 8} {
			ring := buildRing(seed, 64, 5)
			tree := buildTree(t, ring, k)
			for _, vs := range ring.VServers() {
				if len(tree.LeavesOf(vs)) == 0 {
					t.Fatalf("seed=%d k=%d: VS %s hosts no leaf", seed, k, vs.ID)
				}
			}
		}
	}
}

func TestLeavesTileTheCircle(t *testing.T) {
	ring := buildRing(4, 32, 4)
	tree := buildTree(t, ring, 2)
	var total uint64
	tree.Walk(func(n Handle) {
		if tree.IsLeaf(n) {
			total += tree.Region(n).Width
		}
	})
	if total != ident.SpaceSize {
		t.Fatalf("leaves cover %d of %d", total, ident.SpaceSize)
	}
}

func TestLeafRegionInsideHostRegion(t *testing.T) {
	ring := buildRing(5, 48, 3)
	tree := buildTree(t, ring, 2)
	tree.Walk(func(n Handle) {
		if tree.IsLeaf(n) && !ring.RegionOf(tree.Host(n)).Covers(tree.Region(n)) {
			t.Fatalf("leaf %v not inside host %v", tree.Region(n), ring.RegionOf(tree.Host(n)))
		}
	})
}

func TestHeightScalesWithK(t *testing.T) {
	ring2 := buildRing(6, 128, 4)
	tree2 := buildTree(t, ring2, 2)
	ring8 := buildRing(6, 128, 4)
	tree8 := buildTree(t, ring8, 8)
	if tree8.Height() >= tree2.Height() {
		t.Errorf("K=8 height %d should be below K=2 height %d", tree8.Height(), tree2.Height())
	}
	// K=2 height is bounded by the identifier bits.
	if tree2.Height() > ident.Bits {
		t.Errorf("K=2 height %d exceeds %d", tree2.Height(), ident.Bits)
	}
	// K=8 splits cut region width by 8 per level.
	if want := int(math.Ceil(float64(ident.Bits)/3)) + 1; tree8.Height() > want {
		t.Errorf("K=8 height %d exceeds %d", tree8.Height(), want)
	}
}

func TestBuildCountsPlantMessages(t *testing.T) {
	ring := buildRing(7, 16, 3)
	eng := ring.Engine()
	tree := buildTree(t, ring, 2)
	if got := eng.MessageCount(MsgPlant); got != int64(tree.NumNodes()) {
		t.Errorf("plant messages %d, want %d", got, tree.NumNodes())
	}
	if eng.MessageCost(MsgPlant) <= 0 {
		t.Error("plant cost not charged")
	}
}

func TestRepairNoChangeIsStable(t *testing.T) {
	ring := buildRing(8, 32, 4)
	tree := buildTree(t, ring, 2)
	nodes, leaves, height := tree.NumNodes(), tree.NumLeaves(), tree.Height()
	changes, err := tree.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if changes != 0 {
		t.Errorf("repair on unchanged ring made %d changes", changes)
	}
	tree.CheckInvariants()
	if tree.NumNodes() != nodes || tree.NumLeaves() != leaves || tree.Height() != height {
		t.Error("repair changed tree shape without ring changes")
	}
}

// TestBuildOverFrozenRing: a first Build and a Repair are legal on a
// ring whose membership is frozen; rebuilding a built tree panics.
func TestBuildOverFrozenRing(t *testing.T) {
	ring := buildRing(8, 32, 4)
	thaw := ring.FreezeMembership()
	tree := buildTree(t, ring, 2)
	if changes, err := tree.Repair(); err != nil || changes != 0 {
		t.Fatalf("Repair on a frozen ring: %d changes, %v", changes, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Build of a built tree over a frozen ring did not panic")
			}
		}()
		_ = tree.Build()
	}()
	thaw()
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
}

func TestRepairAfterNodeRemoval(t *testing.T) {
	ring := buildRing(9, 32, 4)
	tree := buildTree(t, ring, 2)
	victims := ring.AliveNodes()[:8]
	for _, v := range victims {
		ring.RemoveNode(v)
	}
	changes, err := tree.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if changes == 0 {
		t.Error("removing a quarter of nodes should change the tree")
	}
	tree.CheckInvariants()
	// Freshly built tree over the same ring must have identical shape.
	fresh, _ := New(ring, 2)
	if err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	if fresh.NumNodes() != tree.NumNodes() || fresh.NumLeaves() != tree.NumLeaves() {
		t.Errorf("repaired tree shape %d/%d differs from fresh build %d/%d",
			tree.NumNodes(), tree.NumLeaves(), fresh.NumNodes(), fresh.NumLeaves())
	}
	// Unregistering a leaf must not leave its handle behind in the
	// vacated tail slot of its host's list. A join takes leaves from the
	// virtual server it splits and gives it none back, so some list
	// loses its last element.
	for i := 0; i < 8; i++ {
		ring.AddNode(-1, 100, 4)
	}
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	live := map[Handle]bool{}
	tree.Walk(func(n Handle) { live[n] = true })
	for _, vs := range ring.VServers() {
		leaves := tree.LeavesOf(vs)
		for _, l := range leaves[:cap(leaves)] {
			if !l.IsNil() && !live[l] {
				t.Fatalf("leaf list backing array of VS %s still holds discarded leaf %v", vs.ID, tree.Region(l))
			}
		}
	}
}

// TestStaleHostSurvivesSlotReuse: a handle held across a Repair reads
// the host its node was planted in, even after that host left and a
// joiner took its chord.VServer.Slot. A host resolved through the slot
// would name the joiner.
func TestStaleHostSurvivesSlotReuse(t *testing.T) {
	ring := buildRing(18, 64, 3)
	tree := buildTree(t, ring, 2)
	vs := ring.VServers()[17]
	held := tree.LeavesOf(vs)[0]
	departed := vs.Owner
	vsPer := len(departed.VServers())
	ring.RemoveNode(departed)
	joiner := ring.AddNode(-1, 100, vsPer) // takes every slot departed freed
	var reuser *chord.VServer
	for _, j := range joiner.VServers() {
		if j.Slot() == vs.Slot() {
			reuser = j
		}
	}
	if reuser == nil {
		t.Fatalf("no joiner took slot %d; the test covers no reuse", vs.Slot())
	}
	mustRepair(t, tree)
	tree.CheckInvariants()
	if !tree.Follow(held) {
		t.Fatal("a handle held across one Repair reads as stale")
	}
	if got := tree.Host(held); got != vs {
		t.Fatalf("held leaf's host is %s (slot %d), want the departed %s", got.ID, got.Slot(), vs.ID)
	}
	if tree.Host(held).Owner.Alive {
		t.Fatal("held leaf's host's owner is alive; it left the ring")
	}
	if slices.Contains(tree.LeavesOf(reuser), held) {
		t.Fatal("the joiner in the reused slot lists the held leaf")
	}
}

func TestRepairAfterNodeAddition(t *testing.T) {
	ring := buildRing(10, 16, 4)
	tree := buildTree(t, ring, 2)
	for i := 0; i < 16; i++ {
		ring.AddNode(-1, 100, 4)
	}
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	for _, vs := range ring.VServers() {
		if len(tree.LeavesOf(vs)) == 0 {
			t.Fatalf("new VS %s has no leaf after repair", vs.ID)
		}
	}
}

func TestRepairAfterTransfer(t *testing.T) {
	ring := buildRing(11, 16, 4)
	tree := buildTree(t, ring, 2)
	nodes := ring.AliveNodes()
	// Move every VS of node 0 to node 1: tree shape is unchanged (the
	// ring structure is the same), only Host owners differ — and Host
	// pointers still point at the same VS objects, so repair sees no
	// structural change.
	for _, vs := range append([]*chord.VServer(nil), nodes[0].VServers()...) {
		ring.Transfer(vs, nodes[1])
	}
	changes, err := tree.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if changes != 0 {
		t.Errorf("transfer must not change tree structure, got %d changes", changes)
	}
	tree.CheckInvariants()
}

func TestRepairQuiescentSendsNothing(t *testing.T) {
	ring := buildRing(12, 16, 4)
	tree := buildTree(t, ring, 2)
	ring.Engine().ResetMessageStats()
	changes, err := tree.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if changes != 0 {
		t.Errorf("quiescent repair made %d changes", changes)
	}
	if hb := ring.Engine().MessageCount(MsgHeartbeat); hb != 0 {
		t.Errorf("quiescent repair sent %d heartbeats, want 0", hb)
	}
	if p := ring.Engine().MessageCount(MsgPlant); p != 0 {
		t.Errorf("quiescent repair sent %d plants, want 0", p)
	}
}

func TestRepairCountsHeartbeats(t *testing.T) {
	ring := buildRing(12, 64, 4)
	tree := buildTree(t, ring, 2)
	edges := int64(tree.NumNodes() - 1)
	ring.Engine().ResetMessageStats()
	ring.RemoveNode(ring.AliveNodes()[0])
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	hb := ring.Engine().MessageCount(MsgHeartbeat)
	if hb == 0 {
		t.Error("repair after churn probed no children")
	}
	// Probes happen only along dirty paths: far fewer than one per
	// parent-child edge of the whole tree.
	if hb >= edges/2 {
		t.Errorf("heartbeats %d not incremental (tree has %d edges)", hb, edges)
	}
	if ring.Engine().MessageCount(MsgPlant) == 0 {
		t.Error("repair after churn planted nothing")
	}
}

// TestRepairHeartbeatUsesCurrentHost is the churn pricing regression: a
// probe must be priced against the child's re-resolved current host,
// not the stale pre-repair host that may have departed. Every latency
// touching the departed node is enormous; if any post-churn probe were
// still priced against a host on it, the heartbeat cost would show it.
func TestRepairHeartbeatUsesCurrentHost(t *testing.T) {
	const farAway = 100000
	eng := sim.NewEngine(21)
	victimIdx := 0
	ring := chord.NewRing(eng, chord.Config{
		Latency: func(a, b *chord.Node) sim.Time {
			if a.Index == victimIdx || b.Index == victimIdx {
				return farAway
			}
			return 1
		},
	})
	for i := 0; i < 16; i++ {
		ring.AddNode(-1, 100, 4)
	}
	tree, err := New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	ring.Engine().ResetMessageStats()
	ring.RemoveNode(ring.Nodes()[victimIdx])
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	hb := ring.Engine().MessageCount(MsgHeartbeat)
	if hb == 0 {
		t.Fatal("repair after churn probed no children")
	}
	// All surviving hosts live on non-victim nodes: every probe costs
	// latency 1 + 1 hop. A single stale-host pricing would add farAway.
	if cost := ring.Engine().MessageCost(MsgHeartbeat); cost != 2*hb {
		t.Errorf("heartbeat cost %d for %d probes; a probe was priced against a departed host", cost, hb)
	}
}

func TestCompressedShape(t *testing.T) {
	ring := buildRing(18, 256, 5) // 1280 VSs
	tree := buildTree(t, ring, 2)
	v := ring.NumVServers()
	// Chain collapse keeps the tree near log2(V) deep instead of the
	// identifier-bits-deep chains a dyadic split produces.
	bound := 2 * int(math.Ceil(math.Log2(float64(v))))
	if tree.Height() > bound {
		t.Errorf("height %d exceeds 2*log2(%d VSs) = %d", tree.Height(), v, bound)
	}
	if tree.NumNodes() > 5*v {
		t.Errorf("%d nodes for %d VSs — compression failed (~4.3/VS expected)", tree.NumNodes(), v)
	}
}

func TestRepairFromScratch(t *testing.T) {
	ring := buildRing(13, 8, 3)
	tree, _ := New(ring, 2)
	changes, err := tree.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if changes != tree.NumNodes() {
		t.Errorf("bootstrap repair reported %d changes, want %d", changes, tree.NumNodes())
	}
	tree.CheckInvariants()
}

func TestRepairMassiveChurnConverges(t *testing.T) {
	ring := buildRing(14, 64, 4)
	tree := buildTree(t, ring, 2)
	// Churn: remove half, add half, repair, and verify a second repair
	// is a no-op (fixed point).
	alive := ring.AliveNodes()
	for i := 0; i < len(alive)/2; i++ {
		ring.RemoveNode(alive[i])
	}
	for i := 0; i < 32; i++ {
		ring.AddNode(-1, 100, 4)
	}
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	changes, _ := tree.Repair()
	if changes != 0 {
		t.Errorf("second repair made %d changes, want 0", changes)
	}
}

func TestEdgeLatency(t *testing.T) {
	ring := buildRing(15, 16, 3)
	tree := buildTree(t, ring, 2)
	if tree.EdgeLatency(tree.Root()) != 0 {
		t.Error("root edge latency should be 0")
	}
	tree.Walk(func(n Handle) {
		if !tree.Parent(n).IsNil() && tree.EdgeLatency(n) < 1 {
			t.Error("child edge latency should be >= 1")
		}
	})
}

func TestWalkVisitsAllNodesOnce(t *testing.T) {
	ring := buildRing(16, 32, 3)
	tree := buildTree(t, ring, 2)
	seen := map[Handle]bool{}
	tree.Walk(func(n Handle) {
		if seen[n] {
			t.Fatal("node visited twice")
		}
		seen[n] = true
	})
	if len(seen) != tree.NumNodes() {
		t.Fatalf("walk visited %d, tree has %d", len(seen), tree.NumNodes())
	}
	// Walk on an unbuilt tree is a no-op.
	empty, _ := New(ring, 2)
	empty.Walk(func(Handle) { t.Fatal("unbuilt tree should not visit") })
}

func TestTreeSizeReasonable(t *testing.T) {
	// The tree should stay near-linear in the number of virtual servers.
	ring := buildRing(17, 256, 5) // 1280 VSs
	tree := buildTree(t, ring, 2)
	v := ring.NumVServers()
	if tree.NumNodes() > v*2*ident.Bits {
		t.Errorf("tree has %d nodes for %d VSs — superlinear blowup", tree.NumNodes(), v)
	}
	if tree.NumLeaves() < v {
		t.Errorf("only %d leaves for %d VSs", tree.NumLeaves(), v)
	}
}

func BenchmarkBuild256x5K2(b *testing.B) {
	ring := buildRing(1, 256, 5)
	tree, _ := New(ring, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild128k is Build at the round-oracle-128k fixture's size:
// 25,600 nodes × 5 virtual servers, bulk-built, K = 2.
func BenchmarkBuild128k(b *testing.B) {
	ring := workload.NewRing(sim.NewEngine(1), workload.RingSpec{Nodes: 25600, VSPerNode: 5})
	tree, _ := New(ring, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairStable(b *testing.B) {
	ring := buildRing(1, 256, 5)
	tree, _ := New(ring, 2)
	tree.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Repair()
	}
}

// BenchmarkRepairChurn1pct times the Repair that matters: the one after
// 1% of a 6,400-node ring left and as many joined (the churn itself runs
// off the clock).
func BenchmarkRepairChurn1pct(b *testing.B) {
	ring := buildRing(1, 6400, 5)
	tree, _ := New(ring, 2)
	tree.Build()
	b.ReportAllocs()
	var changes int
	var alloc uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replaceOnePercent(ring)
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		changes += mustRepair(b, tree)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		b.StartTimer()
	}
	b.ReportMetric(float64(changes)/float64(b.N), "changes/op")
	b.ReportMetric(float64(alloc)/float64(changes), "B/change")
}
