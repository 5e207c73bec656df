package ktree

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"p2plb/internal/chord"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// liveHeap returns the bytes reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// replaceOnePercent is the benchmark's churn: the lowest-indexed 1% of
// the alive nodes leave and as many join.
func replaceOnePercent(ring *chord.Ring) {
	alive := ring.AliveNodes()
	k := max(len(alive)/100, 1)
	for _, n := range alive[:k] {
		ring.RemoveNode(n)
	}
	for i := 0; i < k; i++ {
		ring.AddNode(-1, 100, 5)
	}
}

func mustRepair(t testing.TB, tree *Tree) (changes int) {
	t.Helper()
	changes, err := tree.Repair()
	if err != nil {
		t.Fatal(err)
	}
	return changes
}

// churnCycle is one churn and the Repair that absorbs it.
func churnCycle(t testing.TB, ring *chord.Ring, tree *Tree) (changes int) {
	t.Helper()
	replaceOnePercent(ring)
	return mustRepair(t, tree)
}

// TestRepairHeapFlat: a tree under steady churn costs what it holds.
// Fifteen 1% churn cycles leave the live heap where the second cycle
// left it (the free stack fills during the first two), because every
// later pass plants into the slots earlier passes discarded.
func TestRepairHeapFlat(t *testing.T) {
	ring := buildRing(1, 2048, 5)
	tree := buildTree(t, ring, 2)
	var at2, at15 uint64
	for cycle := 1; cycle <= 15; cycle++ {
		churnCycle(t, ring, tree)
		tree.CheckInvariants()
		switch cycle {
		case 2:
			at2 = liveHeap()
		case 15:
			at15 = liveHeap()
		}
	}
	t.Logf("live heap %.1f MB after cycle 2, %.1f MB after cycle 15", float64(at2)/(1<<20), float64(at15)/(1<<20))
	if float64(at15) > 1.05*float64(at2) {
		t.Errorf("live heap grew from %d to %d bytes over cycles 2–15, more than 5%%", at2, at15)
	}
	runtime.KeepAlive(tree)
}

// TestRecordHoldsNoPointers: the record table is never scanned by the
// garbage collector and a record copy pays no write barrier, because
// no field of rec is or holds a pointer. Hosts live in Tree.hosts.
func TestRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the GC would scan every record", path, ty.Kind())
		}
	}
	walk("rec", reflect.TypeOf(rec{}))
	if got := unsafe.Sizeof(rec{}); got != 48 {
		t.Errorf("rec is %d bytes, want 48", got)
	}
}

// TestBuildHeapProportional: what Build leaves reachable is the tree —
// at most twice its records and host pointers, plus the per-slot leaf
// lists it must hold.
func TestBuildHeapProportional(t *testing.T) {
	for _, nodes := range []int{256, 2048, 6400} {
		ring := buildRing(1, nodes, 5)
		tree, err := New(ring, 2)
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		if err := tree.Build(); err != nil {
			t.Fatal(err)
		}
		built := int64(liveHeap()) - int64(before)

		perNode := int64(unsafe.Sizeof(rec{}) + unsafe.Sizeof((*chord.VServer)(nil))) // a record and its Tree.hosts entry
		budget := int64(2*tree.NumNodes()) * perNode
		budget += int64(ring.NumSlots()) * int64(unsafe.Sizeof(leafList{}))
		for _, vs := range ring.VServers() {
			budget += int64(cap(tree.LeavesOf(vs))) * int64(unsafe.Sizeof(Handle{}))
		}
		t.Logf("%d nodes: Build holds %.2f MB for %d KT nodes (%.1f× their %d B), budget %d B (%.2f MB)",
			nodes, float64(built)/(1<<20), tree.NumNodes(),
			float64(built)/float64(tree.NumNodes())/float64(perNode), perNode, budget, float64(budget)/(1<<20))
		if built > budget {
			t.Errorf("%d nodes: Build holds %d bytes, budget %d", nodes, built, budget)
		}
		runtime.KeepAlive(tree)
	}
}

// TestBuildAllocProportional: a fresh Build allocates little beyond the
// tree it keeps. Each fresh subtree task counts its nodes and plants
// them straight into its window of the table, which grows once, so what
// the build allocates per KT node is a record and a host pointer (56 B)
// with the table's slack, the leaf lists, and the workers' scratch —
// not a staged copy of every record. The fixture is round-oracle-128k's
// ring: 25,600 bulk-built nodes × 5 virtual servers, K = 2.
func TestBuildAllocProportional(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const bytesPerNode = 96
	ring := workload.NewRing(sim.NewEngine(1), workload.RingSpec{Nodes: 25600, VSPerNode: 5})
	tree, err := New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perNode := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(tree.NumNodes())
	t.Logf("Build allocated %.1f MB for %d KT nodes: %.0f B a node", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), tree.NumNodes(), perNode)
	if perNode > bytesPerNode {
		t.Errorf("Build allocated %.0f B per KT node, want <= %d", perNode, bytesPerNode)
	}
}

// TestRepairReusesDiscarded: once the free stack has filled, what a
// Repair allocates is bounded by what it changes, not by the tree. The
// same bound per change holds on a tree three times the size.
func TestRepairReusesDiscarded(t *testing.T) {
	const bytesPerChange = 400
	for _, nodes := range []int{2048, 6400} {
		ring := buildRing(1, nodes, 5)
		tree := buildTree(t, ring, 2)
		churnCycle(t, ring, tree)
		churnCycle(t, ring, tree)
		var m0, m1 runtime.MemStats
		var changes int
		var alloc uint64
		for cycle := 3; cycle <= 6; cycle++ {
			replaceOnePercent(ring)
			runtime.ReadMemStats(&m0)
			changes += mustRepair(t, tree)
			runtime.ReadMemStats(&m1)
			alloc += m1.TotalAlloc - m0.TotalAlloc
		}
		tree.CheckInvariants()
		perChange := float64(alloc) / float64(changes)
		t.Logf("%d nodes (%d KT nodes): %d changes over 4 repairs allocated %d bytes, %.0f B/change",
			nodes, tree.NumNodes(), changes, alloc, perChange)
		if perChange > bytesPerChange {
			t.Errorf("%d nodes: Repair allocated %.0f bytes per change, want <= %d", nodes, perChange, bytesPerChange)
		}
	}
}
