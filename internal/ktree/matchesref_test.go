package ktree_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
)

// poison stands in for the switch the reference (ktreeref_test.go, the
// pointer-graph tree kept verbatim) read from a package that is gone;
// it stays off.
var poison struct{ Freed bool }

// twin is one ring with the tree under test or the reference tree over
// it. Both twins are built from one seed and take the same script, so
// their rings are identical.
type twin struct {
	eng  *sim.Engine
	ring *chord.Ring
}

func newTwin(seed int64, nodes int) twin {
	eng := sim.NewEngine(seed)
	ring := chord.NewRing(eng, chord.Config{})
	for i := 0; i < nodes; i++ {
		ring.AddNode(-1, 100, 1+i%4)
	}
	return twin{eng, ring}
}

// step applies one scripted membership change: op picks a join, a node
// leaving, a virtual server leaving or a transfer, and a and b pick
// among the ring's nodes and virtual servers.
func (w twin) step(op, a, b int) {
	alive, vss := w.ring.AliveNodes(), w.ring.VServers()
	switch op % 4 {
	case 0:
		w.ring.AddNode(-1, 100, 1+a%4)
	case 1:
		if len(alive) > 4 {
			w.ring.RemoveNode(alive[a%len(alive)])
		}
	case 2:
		if len(vss) > 8 {
			w.ring.RemoveVServer(vss[a%len(vss)])
		}
	case 3:
		w.ring.Transfer(vss[a%len(vss)], alive[b%len(alive)])
	}
}

// requireSameTree fails on the first difference between the reference
// tree and the tree under test: a node (region, key, host, depth, child
// count) in preorder, a virtual server's leaf list in stored order, the
// counters or the message tallies.
func requireSameTree(t *testing.T, at string, ref twin, refTree *Tree, got twin, tree *ktree.Tree) {
	t.Helper()
	var rec func(n *Node, h ktree.Handle)
	rec = func(n *Node, h ktree.Handle) {
		if n.Region != tree.Region(h) || n.Key != tree.Region(h).Center() || n.Host.ID != tree.Host(h).ID ||
			n.Host.Owner.Index != tree.Host(h).Owner.Index || n.Depth != tree.Depth(h) || len(n.Children) != tree.NumChildren(h) {
			t.Fatalf("%s: node differs: reference %v host %v@%d depth %d with %d children, tree %v host %v@%d depth %d with %d children",
				at, n.Region, n.Host.ID, n.Host.Owner.Index, n.Depth, len(n.Children),
				tree.Region(h), tree.Host(h).ID, tree.Host(h).Owner.Index, tree.Depth(h), tree.NumChildren(h))
		}
		c := tree.FirstChild(h)
		for _, rc := range n.Children {
			rec(rc, c)
			c = tree.NextSibling(c)
		}
	}
	rec(refTree.Root(), tree.Root())
	gotVSs := got.ring.VServers()
	for i, vs := range ref.ring.VServers() {
		want, have := refTree.LeavesOf(vs), tree.LeavesOf(gotVSs[i])
		if len(want) != len(have) {
			t.Fatalf("%s: VS %v hosts %d leaves, reference %d", at, vs.ID, len(have), len(want))
		}
		for j := range want {
			if want[j].Region != tree.Region(have[j]) {
				t.Fatalf("%s: VS %v leaf %d is %v, reference %v", at, vs.ID, j, tree.Region(have[j]), want[j].Region)
			}
		}
	}
	if w, g := counters(ref, refTree.NumNodes(), refTree.NumLeaves(), refTree.Height()), counters(got, tree.NumNodes(), tree.NumLeaves(), tree.Height()); w != g {
		t.Fatalf("%s: counters differ:\n reference %s\n tree      %s", at, w, g)
	}
}

func counters(w twin, nodes, leaves, height int) string {
	return fmt.Sprintf("nodes=%d leaves=%d height=%d plant=%d/%d heartbeat=%d/%d", nodes, leaves, height,
		w.eng.MessageCount(ktree.MsgPlant), w.eng.MessageCost(ktree.MsgPlant),
		w.eng.MessageCount(ktree.MsgHeartbeat), w.eng.MessageCost(ktree.MsgHeartbeat))
}

// TestMatchesReference holds the handle-table tree to the pointer-graph
// tree it replaced, kept verbatim in ktreeref_test.go: on twin rings
// from one seed, after Build and after every Repair of a random script
// of joins, leaves and transfers, both trees have the same nodes in the
// same order (regions, keys, hosts, depths, child order), the same leaf
// list per virtual server in the same order, the same counters, the
// same Repair change counts and the same plant and heartbeat tallies —
// for K ∈ {2, 3, 8} and at GOMAXPROCS 1 and 4. The rings are large
// enough that the trees reach the depth where both shard into subtree
// tasks.
func TestMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, k := range []int{2, 3, 8} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("procs=%d/K=%d/seed=%d", procs, k, seed), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					matchReference(t, seed, k)
				})
			}
		}
	}
}

func matchReference(t *testing.T, seed int64, k int) {
	ref, got := newTwin(seed, 256), newTwin(seed, 256)
	refTree, err := New(ref.ring, k)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ktree.New(got.ring, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := refTree.Build(); err != nil {
		t.Fatal(err)
	}
	if refTree.Height() <= refTree.taskDepth {
		t.Fatalf("tree height %d does not pass the task depth %d; nothing shards", refTree.Height(), refTree.taskDepth)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	requireSameTree(t, "build", ref, refTree, got, tree)
	script := rand.New(rand.NewSource(seed))
	for cycle := 0; cycle < 12; cycle++ {
		for i := 0; i < 1+script.Intn(6); i++ {
			op, a, b := script.Int(), script.Int(), script.Int()
			ref.step(op, a, b)
			got.step(op, a, b)
		}
		want, err := refTree.Repair()
		if err != nil {
			t.Fatal(err)
		}
		changes, err := tree.Repair()
		if err != nil {
			t.Fatal(err)
		}
		tree.CheckInvariants()
		at := fmt.Sprintf("repair %d", cycle)
		if changes != want {
			t.Fatalf("%s: %d changes, reference %d", at, changes, want)
		}
		requireSameTree(t, at, ref, refTree, got, tree)
	}
}

// TestLoneBoundaryMatchesReference pins the edges of decompose's
// one-boundary shortcut to the reference tree, on hand-placed
// identifiers at K ∈ {2, 3, 8}: an ID on a region's last key, alone and
// beside one inside it (the last key marks no boundary inside the
// region), IDs 0 and 2^32−1, and two-VS rings. Each ring is built whole,
// and grown from its first two IDs through one Repair.
func TestLoneBoundaryMatchesReference(t *testing.T) {
	last := func(r ident.Region) ident.ID { return r.Start.Add(r.Width - 1) }
	for _, k := range []int{2, 3, 8} {
		top := ident.Full().Split(k)
		inner := top[0].Split(k)[1] // a region two splits down
		for _, c := range []struct {
			name string
			ids  []ident.ID
		}{
			{"last-key-alone", []ident.ID{last(top[0]), top[k-1].Start.Add(17), top[1].Center()}},
			{"last-key-beside-one", []ident.ID{inner.Start.Add(5), last(inner), top[k-1].Center()}},
			{"last-key-beside-next", []ident.ID{last(inner).Add(math.MaxUint32), last(inner), top[1].Center(), 0}},
			{"zero-and-top", []ident.ID{0, math.MaxUint32, top[1].Center()}},
			{"two-vs-zero-and-top", []ident.ID{0, math.MaxUint32}},
			{"two-vs-adjacent", []ident.ID{top[1].Center(), top[1].Center().Add(1)}},
			{"two-vs-apart", []ident.ID{0x12345678, 0x9abcdef0}},
			{"two-vs-last-keys", []ident.ID{last(top[0]), last(top[k-1])}},
		} {
			name, ids := c.name, c.ids
			t.Run(fmt.Sprintf("K=%d/%s", k, name), func(t *testing.T) {
				ref, got := placedTwin(t, ids), placedTwin(t, ids)
				refTree, tree := buildBoth(t, ref, got, k)
				requireSameTree(t, "build", ref, refTree, got, tree)

				ref, got = placedTwin(t, ids[:2]), placedTwin(t, ids[:2])
				refTree, tree = buildBoth(t, ref, got, k)
				for _, w := range []twin{ref, got} {
					for _, id := range ids[2:] {
						if _, err := w.ring.AddNodeWithIDs(-1, 100, []ident.ID{id}); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, err := refTree.Repair()
				if err != nil {
					t.Fatal(err)
				}
				changes, err := tree.Repair()
				if err != nil {
					t.Fatal(err)
				}
				tree.CheckInvariants()
				if changes != want {
					t.Fatalf("repair: %d changes, reference %d", changes, want)
				}
				requireSameTree(t, "repair", ref, refTree, got, tree)
			})
		}
	}
}

// placedTwin is a ring of one node per identifier.
func placedTwin(t *testing.T, ids []ident.ID) twin {
	t.Helper()
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	for _, id := range ids {
		if _, err := ring.AddNodeWithIDs(-1, 100, []ident.ID{id}); err != nil {
			t.Fatal(err)
		}
	}
	return twin{eng, ring}
}

// buildBoth builds the reference tree over ref and the tree under test
// over got.
func buildBoth(t *testing.T, ref, got twin, k int) (*Tree, *ktree.Tree) {
	t.Helper()
	refTree, err := New(ref.ring, k)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ktree.New(got.ring, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := refTree.Build(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	tree.CheckInvariants()
	return refTree, tree
}
