package ktree

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/sim"
)

// requireTreesEqual walks two trees in lockstep and fails on the first
// structural difference: regions, keys, hosts, depths, child counts,
// the node/leaf/height counters, and the per-VS leaf sets (compared as
// sorted sets — incremental repair appends in discovery order, a fresh
// build in DFS order).
func requireTreesEqual(t *testing.T, repaired, fresh *Tree) {
	t.Helper()
	if repaired.NumNodes() != fresh.NumNodes() ||
		repaired.NumLeaves() != fresh.NumLeaves() ||
		repaired.Height() != fresh.Height() {
		t.Fatalf("bookkeeping differs: repaired %d/%d/%d, fresh %d/%d/%d",
			repaired.NumNodes(), repaired.NumLeaves(), repaired.Height(),
			fresh.NumNodes(), fresh.NumLeaves(), fresh.Height())
	}
	var rec func(a, b *Node)
	rec = func(a, b *Node) {
		if a.Region != b.Region || a.Key != b.Key {
			t.Fatalf("region/key differ: %v/%v vs %v/%v", a.Region, a.Key, b.Region, b.Key)
		}
		if a.Host != b.Host {
			t.Fatalf("host differs at %v: %s vs %s", a.Region, a.Host.ID, b.Host.ID)
		}
		if a.Depth != b.Depth {
			t.Fatalf("depth differs at %v: %d vs %d", a.Region, a.Depth, b.Depth)
		}
		if a.IsLeaf() != b.IsLeaf() || len(a.Children) != len(b.Children) {
			t.Fatalf("shape differs at %v: %d vs %d children", a.Region, len(a.Children), len(b.Children))
		}
		for i := range a.Children {
			rec(a.Children[i], b.Children[i])
		}
	}
	rec(repaired.Root(), fresh.Root())
	leafStarts := func(tr *Tree, vs *chord.VServer) []uint32 {
		var out []uint32
		for _, l := range tr.LeavesOf(vs) {
			out = append(out, uint32(l.Region.Start))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, vs := range repaired.Ring().VServers() {
		a, b := leafStarts(repaired, vs), leafStarts(fresh, vs)
		if len(a) != len(b) {
			t.Fatalf("VS %s leaf count differs: %d vs %d", vs.ID, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("VS %s leaf sets differ", vs.ID)
			}
		}
	}
}

// TestRepairEquivalentToFreshBuild is the Repair ≡ Build property test:
// after arbitrary interleavings of node churn, individual VS removal,
// and VS transfers, an incremental Repair must produce exactly the tree
// a fresh Build over the final ring produces. Setting taskDepth low
// forces the sharded subtree path even at test sizes, so the parallel
// merge is exercised here (and under -race in CI).
func TestRepairEquivalentToFreshBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, k := range []int{2, 3, 8} {
			eng := sim.NewEngine(seed)
			ring := chord.NewRing(eng, chord.Config{})
			for i := 0; i < 48; i++ {
				ring.AddNode(-1, 100, 4)
			}
			tree, err := New(ring, k)
			if err != nil {
				t.Fatal(err)
			}
			tree.taskDepth = 2 // force parallel subtree tasks on a small tree
			if err := tree.Build(); err != nil {
				t.Fatal(err)
			}
			rng := eng.Rand()
			for round := 0; round < 4; round++ {
				alive := ring.AliveNodes()
				for i := 0; i < 1+rng.Intn(4) && len(alive) > 4; i++ {
					victim := alive[rng.Intn(len(alive))]
					if victim.Alive {
						ring.RemoveNode(victim)
					}
				}
				for i := 0; i < 1+rng.Intn(4); i++ {
					ring.AddNode(-1, 100, 1+rng.Intn(4))
				}
				if vss := ring.VServers(); len(vss) > 8 {
					ring.RemoveVServer(vss[rng.Intn(len(vss))])
				}
				alive = ring.AliveNodes()
				for i := 0; i < 3; i++ {
					vss := ring.VServers()
					ring.Transfer(vss[rng.Intn(len(vss))], alive[rng.Intn(len(alive))])
				}
				if _, err := tree.Repair(); err != nil {
					t.Fatal(err)
				}
				tree.CheckInvariants()

				fresh, err := New(ring, k)
				if err != nil {
					t.Fatal(err)
				}
				fresh.taskDepth = 2
				if err := fresh.Build(); err != nil {
					t.Fatal(err)
				}
				fresh.CheckInvariants()
				requireTreesEqual(t, tree, fresh)
			}
		}
	}
}

// TestRepairJournalOverflowRebuilds drives more churn events than the
// dirty journal tracks and verifies the overflow path (a full rebuild)
// still converges to the fresh-build tree.
func TestRepairJournalOverflowRebuilds(t *testing.T) {
	eng := sim.NewEngine(7)
	ring := chord.NewRing(eng, chord.Config{})
	for i := 0; i < 32; i++ {
		ring.AddNode(-1, 100, 4)
	}
	tree, err := New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	tree.overflow = true // simulate a journal overflow
	ring.AddNode(-1, 100, 4)
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	fresh, _ := New(ring, 2)
	if err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	requireTreesEqual(t, tree, fresh)
}

// churnTrace builds a 96-node ring, runs six churn-and-Repair cycles on
// procs cores with subtree tasks forced on, and records after each cycle
// everything that must not depend on the core count: the tree in Walk
// order, every virtual server's leaf list in stored order (the protocol
// draws leaves[rng.Intn(len)] from it), the plant and heartbeat tallies
// — and which *Node each place in the tree got, as a serial number given
// to every pointer when first seen, so the free list's hand-out order is
// pinned too. recycled counts nodes planted on a pointer seen before.
func churnTrace(t *testing.T, procs int) (trace []string, recycled int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng := sim.NewEngine(3)
	ring := chord.NewRing(eng, chord.Config{})
	for i := 0; i < 96; i++ {
		ring.AddNode(-1, 100, 4)
	}
	tree, err := New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree.taskDepth = 3
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	serial := map[*Node]int{}
	for cycle := 0; cycle < 6; cycle++ {
		inTree := map[*Node]bool{}
		tree.Walk(func(n *Node) {
			inTree[n] = true
			if _, seen := serial[n]; !seen {
				serial[n] = len(serial)
			}
		})
		for _, n := range ring.AliveNodes()[:6] {
			ring.RemoveNode(n)
		}
		for i := 0; i < 6; i++ {
			ring.AddNode(-1, 100, 4)
		}
		if _, err := tree.Repair(); err != nil {
			t.Fatal(err)
		}
		tree.CheckInvariants()
		var sb strings.Builder
		tree.Walk(func(n *Node) {
			id, seen := serial[n]
			if !seen {
				id = len(serial)
				serial[n] = id
			} else if !inTree[n] {
				recycled++
			}
			fmt.Fprintf(&sb, "%v@%s#%d ", n.Region, n.Host.ID, id)
		})
		for _, vs := range ring.VServers() {
			fmt.Fprintf(&sb, "|%s:", vs.ID)
			for _, l := range tree.LeavesOf(vs) {
				fmt.Fprintf(&sb, "%s,", l.Region.Start)
			}
		}
		fmt.Fprintf(&sb, "|plant=%d/%d hb=%d/%d", eng.MessageCount(MsgPlant), eng.MessageCost(MsgPlant),
			eng.MessageCount(MsgHeartbeat), eng.MessageCost(MsgHeartbeat))
		trace = append(trace, sb.String())
	}
	return trace, recycled
}

// TestRepairIndependentOfCoreCount: with recycling active, one core and
// four produce the same tree, the same leaf-list order, the same
// message tallies, and hand the same discarded node to the same place.
func TestRepairIndependentOfCoreCount(t *testing.T) {
	one, recycled := churnTrace(t, 1)
	four, _ := churnTrace(t, 4)
	for cycle := range one {
		if one[cycle] != four[cycle] {
			t.Fatalf("cycle %d differs between GOMAXPROCS 1 and 4:\n 1: %.400s\n 4: %.400s", cycle, one[cycle], four[cycle])
		}
	}
	if recycled == 0 {
		t.Fatal("no node was planted on a recycled pointer; the test covers no recycling")
	}
	t.Logf("%d nodes planted on recycled pointers over 6 cycles", recycled)
}
