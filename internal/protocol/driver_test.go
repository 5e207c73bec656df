// Driver-level unit tests: the epoch-window budget and the round-scratch
// recycling paths belong to the sim executor, not the lbnode machines,
// so they are pinned here against the Runner internals directly.
package protocol

import (
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
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
	if got, want := rd.epochWindow(0), sim.Time(100*(h+1)); got != want {
		t.Errorf("root window = %v, want %v", got, want)
	}
	if got, want := rd.epochWindow(h), sim.Time(100); got != want {
		t.Errorf("leaf window = %v, want %v", got, want)
	}
	for d := 0; d < h; d++ {
		parent, child := rd.epochWindow(d), rd.epochWindow(d+1)
		if parent <= child {
			t.Errorf("depth-%d window %v does not outlast depth-%d window %v", d, parent, d+1, child)
		}
	}
	if got, want := rd.epochWindow(h+7), sim.Time(100); got != want {
		t.Errorf("over-deep window = %v, want clamped %v", got, want)
	}
}

// TestScratchReuseAndShrink covers takeScratch directly: the inboxes
// are indexed by KT handle and sized to the tree's handle bound,
// growing or shrinking with it, while a recycled scratch keeps every
// report slice's array, truncated in place, and drops every VSA list.
// The last round's placement stays on the scratch for the next
// PlaceRound to take over.
func TestScratchReuseAndShrink(t *testing.T) {
	ring, tree := fixture(32, 48, 3)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}

	// Seed a recycled scratch the way a clean round leaves one: report
	// slices still holding last round's entries, a VSA list, a states
	// entry and last round's placement — sized for a tree larger than
	// this one.
	bound := tree.HandleBound()
	place := core.PlaceRound(ring, tree, ring.Engine().Rand(), nil)
	sc := &roundScratch{
		lbiInbox: make([][]core.LBI, bound+10),
		states:   map[*chord.Node]*core.NodeState{ring.Nodes()[0]: {}},
		vsaInbox: make([]*core.PairList, bound+10),
		place:    place,
	}
	sc.lbiInbox[0], sc.lbiInbox[bound+5] = make([]core.LBI, 3, 8), make([]core.LBI, 1)
	sc.vsaInbox[1] = &core.PairList{}
	r.scratch = sc

	got := r.takeScratch()
	if got != sc {
		t.Fatal("takeScratch allocated fresh scratch instead of reusing the recycled one")
	}
	if r.scratch != nil {
		t.Fatal("takeScratch left the runner still holding the scratch")
	}
	if len(got.lbiInbox) != bound || len(got.vsaInbox) != bound {
		t.Errorf("inboxes sized %d/%d, want the handle bound %d", len(got.lbiInbox), len(got.vsaInbox), bound)
	}
	if len(got.lbiInbox[0]) != 0 || cap(got.lbiInbox[0]) < 8 {
		t.Errorf("reuse path must truncate report slices in place: len %d cap %d, want len 0 cap >= 8",
			len(got.lbiInbox[0]), cap(got.lbiInbox[0]))
	}
	if tail := got.lbiInbox[:bound+10]; len(tail[bound+5]) != 0 {
		t.Error("shrinking the inbox left a report past the bound for a later round to find")
	}
	if len(got.states) != 0 || got.vsaInbox[1] != nil {
		t.Error("reuse path must clear states and the VSA lists")
	}
	if got.place != place {
		t.Error("reuse path must keep last round's placement for PlaceRound to recycle")
	}
	nodes, lbiLeaf := &place.Nodes[0], &place.LBILeaf[0]
	if again := core.PlaceRound(ring, tree, ring.Engine().Rand(), got.place); again != place ||
		&again.Nodes[0] != nodes || &again.LBILeaf[0] != lbiLeaf {
		t.Error("PlaceRound over a recycled placement must reuse its slices")
	}

	// A runner with no recycled scratch allocates a complete fresh set.
	r.scratch = nil
	blank := r.takeScratch()
	if blank == nil || len(blank.lbiInbox) != bound || blank.states == nil || len(blank.vsaInbox) != bound {
		t.Fatal("cold takeScratch must allocate the states map and both inboxes")
	}
	if blank.place != nil {
		t.Fatal("cold takeScratch has no placement to recycle")
	}
}
