package core

import (
	"math/rand"
	"testing"
)

// TestPlacementAfterMembershipChange holds the placement's slot-indexed
// state to the map semantics it replaced when membership changes after
// PlaceRound, as it can during a message-level round: a node or
// virtual server that joined since the placement gets no leaf (and no
// panic), and a joiner that takes the slot a departed, already-drawn
// virtual server freed is never handed the departed one's leaf.
func TestPlacementAfterMembershipChange(t *testing.T) {
	ring, tree := buildLoadedRing(3, 32, 4)
	rng := rand.New(rand.NewSource(1))
	place := PlaceRound(ring, tree, rng, nil)

	late := ring.AddNode(-1, 1, 3)
	if late.Index < len(place.VSALeaf) {
		t.Fatalf("late node %d lies inside VSALeaf (len %d)", late.Index, len(place.VSALeaf))
	}
	for _, vs := range late.VServers() {
		if leaf := place.LeafOf(vs, rng); !leaf.IsNil() {
			t.Errorf("VS %s joined after the placement but reports through leaf %v", vs.ID, tree.Region(leaf))
		}
	}

	gone := ring.VServers()[5]
	leaf := place.LeafOf(gone, rng)
	if leaf.IsNil() {
		t.Fatal("a VS planted before the placement has no leaf")
	}
	ring.RemoveVServer(gone)
	joiner := ring.AddNode(-1, 1, 1).VServers()[0]
	if joiner.Slot() != gone.Slot() {
		t.Fatalf("joiner took slot %d, want the freed slot %d", joiner.Slot(), gone.Slot())
	}
	if got := place.LeafOf(joiner, rng); !got.IsNil() {
		t.Errorf("joiner in a reused slot reports through leaf %v (the departed VS's is %v); want none", tree.Region(got), tree.Region(leaf))
	}

	// The next round repairs the tree and plants every joiner.
	b, err := NewBalancer(ring, tree, Config{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if total := res.HeavyBefore + res.LightBefore + res.NeutralBefore; total != len(ring.AliveNodes()) {
		t.Errorf("census covers %d nodes, want all %d", total, len(ring.AliveNodes()))
	}
}
