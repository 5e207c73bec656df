// Driver-level unit tests: the epoch-window budget and the round-scratch
// recycling paths belong to the sim executor, not the lbnode machines,
// so they are pinned here against the Runner internals directly.
package protocol

import (
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
)

// TestEpochWindowEdgeCases pins the per-node epoch budget: windows
// shrink one slack unit per level down the tree, a parent always
// outlasting its children, and never collapse below one unit even for
// nodes deeper than the current tree height (tree repair can leave such
// nodes between Build calls; a zero window would fire the expiry at the
// same instant as the request).
func TestEpochWindowEdgeCases(t *testing.T) {
	ring, tree := fixture(31, 64, 3)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 100})
	if err != nil {
		t.Fatal(err)
	}
	rd := &round{r: r, timeout: 100}
	h := tree.Height()
	if h < 1 {
		t.Fatalf("fixture tree too flat: height %d", h)
	}
	if got, want := rd.epochWindow(&ktree.Node{Depth: 0}), sim.Time(100*(h+1)); got != want {
		t.Errorf("root window = %v, want %v", got, want)
	}
	if got, want := rd.epochWindow(&ktree.Node{Depth: h}), sim.Time(100); got != want {
		t.Errorf("leaf window = %v, want %v", got, want)
	}
	for d := 0; d < h; d++ {
		parent, child := rd.epochWindow(&ktree.Node{Depth: d}), rd.epochWindow(&ktree.Node{Depth: d + 1})
		if parent <= child {
			t.Errorf("depth-%d window %v does not outlast depth-%d window %v", d, parent, d+1, child)
		}
	}
	if got, want := rd.epochWindow(&ktree.Node{Depth: h + 7}), sim.Time(100); got != want {
		t.Errorf("over-deep window = %v, want clamped %v", got, want)
	}
}

// TestScratchReuseAndShrink covers takeScratch's two paths directly: a
// modest inbox map is retained key-by-key with its report slices
// truncated in place, while a map dominated by retired KT-node keys
// (tree repair retires nodes between rounds) is dropped for a fresh one
// rather than dragging dead buckets along forever. The last round's
// placement stays on the scratch for the next PlaceRound to take over.
func TestScratchReuseAndShrink(t *testing.T) {
	ring, tree := fixture(32, 48, 3)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}

	// Seed a recycled scratch the way a clean round leaves one: populated
	// maps, report slices still holding last round's entries, and last
	// round's placement.
	n1, n2 := &ktree.Node{}, &ktree.Node{}
	place := core.PlaceRound(ring, tree, ring.Engine().Rand(), nil)
	sc := &roundScratch{
		lbiInbox: map[*ktree.Node][]core.LBI{n1: make([]core.LBI, 3, 8), n2: make([]core.LBI, 1)},
		states:   map[*chord.Node]*core.NodeState{ring.Nodes()[0]: {}},
		vsaInbox: map[*ktree.Node]*core.PairList{n1: {}},
		place:    place,
	}
	r.scratch = sc

	got := r.takeScratch()
	if got != sc {
		t.Fatal("takeScratch allocated fresh scratch instead of reusing the recycled one")
	}
	if r.scratch != nil {
		t.Fatal("takeScratch left the runner still holding the scratch")
	}
	if len(got.lbiInbox) != 2 {
		t.Errorf("reuse path kept %d inbox keys, want 2", len(got.lbiInbox))
	}
	if len(got.lbiInbox[n1]) != 0 || cap(got.lbiInbox[n1]) < 8 {
		t.Errorf("reuse path must truncate report slices in place: len %d cap %d, want len 0 cap >= 8",
			len(got.lbiInbox[n1]), cap(got.lbiInbox[n1]))
	}
	if len(got.states) != 0 || len(got.vsaInbox) != 0 {
		t.Errorf("reuse path must clear states/vsaInbox: %d/%d entries left",
			len(got.states), len(got.vsaInbox))
	}
	if got.place != place {
		t.Error("reuse path must keep last round's placement for PlaceRound to recycle")
	}
	nodes, lbiLeaf := &place.Nodes[0], &place.LBILeaf[0]
	if again := core.PlaceRound(ring, tree, ring.Engine().Rand(), got.place); again != place ||
		&again.Nodes[0] != nodes || &again.LBILeaf[0] != lbiLeaf {
		t.Error("PlaceRound over a recycled placement must reuse its slices")
	}

	// Shrink path: flood the inbox with retired keys past the 2·N+16
	// bound, then take again — the inbox map must be replaced outright.
	for i := 0; i <= 2*tree.NumNodes()+16; i++ {
		got.lbiInbox[&ktree.Node{}] = nil
	}
	r.scratch = got
	fresh := r.takeScratch()
	if fresh != got {
		t.Fatal("shrink path should reuse the scratch struct, replacing only the inbox map")
	}
	if len(fresh.lbiInbox) != 0 {
		t.Errorf("shrink path kept %d retired inbox keys, want a fresh empty map", len(fresh.lbiInbox))
	}

	// A runner with no recycled scratch allocates a complete fresh set.
	r.scratch = nil
	blank := r.takeScratch()
	if blank == nil || blank.lbiInbox == nil || blank.states == nil || blank.vsaInbox == nil {
		t.Fatal("cold takeScratch must allocate every map")
	}
	if blank.place != nil {
		t.Fatal("cold takeScratch has no placement to recycle")
	}
}
