package ktree

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
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
	var rec func(a, b Handle)
	rec = func(a, b Handle) {
		ra, rb := repaired.recs[a.i], fresh.recs[b.i]
		if ra.region != rb.region || ra.key != rb.key {
			t.Fatalf("region/key differ: %v/%v vs %v/%v", ra.region, ra.key, rb.region, rb.key)
		}
		if ha, hb := repaired.Host(a), fresh.Host(b); ha != hb || ra.slot != rb.slot {
			t.Fatalf("host differs at %v: %s (slot %d) vs %s (slot %d)", ra.region, ha.ID, ra.slot, hb.ID, rb.slot)
		}
		if ra.depth != rb.depth {
			t.Fatalf("depth differs at %v: %d vs %d", ra.region, ra.depth, rb.depth)
		}
		if repaired.IsLeaf(a) != fresh.IsLeaf(b) || ra.kids != rb.kids {
			t.Fatalf("shape differs at %v: %d vs %d children", ra.region, ra.kids, rb.kids)
		}
		for ca, cb := repaired.FirstChild(a), fresh.FirstChild(b); !ca.IsNil(); ca, cb = repaired.NextSibling(ca), fresh.NextSibling(cb) {
			rec(ca, cb)
		}
	}
	rec(repaired.Root(), fresh.Root())
	leafStarts := func(tr *Tree, vs *chord.VServer) []uint32 {
		var out []uint32
		for _, l := range tr.LeavesOf(vs) {
			out = append(out, uint32(tr.Region(l).Start))
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
// order with every node's slot, so which slot each node was planted in
// is pinned too, every virtual server's leaf list in stored order (the
// protocol draws leaves[rng.Intn(len)] from it), and the plant and
// heartbeat tallies. recycled counts nodes planted in a slot that held
// another node before.
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
	for cycle := 0; cycle < 6; cycle++ {
		before := map[Handle]bool{}
		used := tree.HandleBound()
		tree.Walk(func(h Handle) { before[h] = true })
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
		tree.Walk(func(h Handle) {
			if !before[h] && h.Index() < used {
				recycled++
			}
			fmt.Fprintf(&sb, "%v@%s#%d ", tree.Region(h), tree.Host(h).ID, h.Index())
		})
		for _, vs := range ring.VServers() {
			fmt.Fprintf(&sb, "|%s:", vs.ID)
			for _, l := range tree.LeavesOf(vs) {
				fmt.Fprintf(&sb, "%s#%d,", tree.Region(l).Start, l.Index())
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
// message tallies, and plant the same node in the same slot.
func TestRepairIndependentOfCoreCount(t *testing.T) {
	one, recycled := churnTrace(t, 1)
	four, _ := churnTrace(t, 4)
	for cycle := range one {
		if one[cycle] != four[cycle] {
			t.Fatalf("cycle %d differs between GOMAXPROCS 1 and 4:\n 1: %.400s\n 4: %.400s", cycle, one[cycle], four[cycle])
		}
	}
	if recycled == 0 {
		t.Fatal("no node was planted in a recycled slot; the test covers no recycling")
	}
	t.Logf("%d nodes planted in recycled slots over 6 cycles", recycled)
}

// FuzzRepairVsBuild decodes data into a script of joins, leaves and
// transfers over a small ring and repairs after every step: each
// repaired tree must pass CheckInvariants and equal a fresh Build over
// the same ring. The first byte picks K from {2, 3, 8}; then each step
// is three bytes, op, a and b. op%5 picks a random join of 1+a%4 virtual
// servers, a join of one virtual server at identifier a<<24|b — placed
// next to the ones beside multiples of 2^24 — a node leaving, a virtual
// server leaving (the ring may shrink to one, and its tree to a root
// leaf) or a transfer.
func FuzzRepairVsBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := []int{2, 3, 8}[int(data[0])%3]
		data = data[1:]
		eng := sim.NewEngine(1)
		ring := chord.NewRing(eng, chord.Config{})
		for i := 0; i < 12; i++ {
			ring.AddNode(-1, 100, 1+i%3)
		}
		tree, err := New(ring, k)
		if err != nil {
			t.Fatal(err)
		}
		tree.taskDepth = 2 // shard even this small tree
		if err := tree.Build(); err != nil {
			t.Fatal(err)
		}
		for steps := 0; len(data) >= 3 && steps < 24; steps++ {
			op, a, b := data[0], int(data[1]), int(data[2])
			data = data[3:]
			alive, vss := ring.AliveNodes(), ring.VServers()
			switch op % 5 {
			case 0:
				ring.AddNode(-1, 100, 1+a%4)
			case 1:
				// A taken identifier is refused; the step changes nothing.
				_, _ = ring.AddNodeWithIDs(-1, 100, []ident.ID{ident.ID(a<<24 | b)})
			case 2:
				if v := alive[a%len(alive)]; len(v.VServers()) < len(vss) {
					ring.RemoveNode(v)
				}
			case 3:
				if len(vss) > 1 {
					ring.RemoveVServer(vss[a%len(vss)])
				}
			case 4:
				ring.Transfer(vss[a%len(vss)], alive[b%len(alive)])
			}
			if _, err := tree.Repair(); err != nil {
				t.Fatal(err)
			}
			tree.CheckInvariants()
			fresh, err := New(ring, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Build(); err != nil {
				t.Fatal(err)
			}
			requireTreesEqual(t, tree, fresh)
		}
	})
}
