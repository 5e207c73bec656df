package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"p2plb/internal/ident"
)

func TestWALReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.HasSnap {
		t.Fatal("fresh WAL reported a snapshot")
	}
	recs := []walRec{
		{T: "snap", Snap: &walSnap{
			Capacity: 500,
			VSs:      []VSRec{{ID: 1, Load: 10}, {ID: 2, Load: 20}, {ID: 3, Load: 30}},
			DriftSum: 1.5, DriftRound: 2,
		}},
		{T: "pend", Pair: "p1", ID: 2, Load: 20, Peer: 4},
		{T: "apply", Pair: "q1", ID: 9, Load: 5, Peer: 3},
		{T: "pend", Pair: "p2", ID: 3, Load: 30, Peer: 5},
		{T: "done", Pair: "p1"},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a kill mid-append: a torn trailing line must be skipped,
	// not fail replay.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"t":"pend","pair":"torn`)
	f.Close()

	w2, st2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first record appended after a torn tail must start its own
	// line, or the next replay loses it with the tail — and one boot
	// record a life makes the incarnation count up across all of it.
	if st.Incarnation != 1 || st2.Incarnation != 2 {
		t.Fatalf("incarnations %d then %d, want 1 then 2", st.Incarnation, st2.Incarnation)
	}
	if err := w2.Append(walRec{T: "apply", Pair: "after-torn", ID: 11, Load: 1, Peer: 3}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, st3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if st3.Incarnation != 3 || !st3.Applied["after-torn"] {
		t.Fatalf("after a torn tail: incarnation %d, applied %v; want 3 and after-torn kept",
			st3.Incarnation, st3.Applied)
	}
	if !st2.HasSnap || st2.Capacity != 500 {
		t.Fatalf("snapshot not recovered: %+v", st2)
	}
	wantStore := map[uint32]float64{1: 10, 9: 5}
	if len(st2.Store) != len(wantStore) {
		t.Fatalf("store %v, want ids 1 and 9", st2.Store)
	}
	for id, load := range wantStore {
		if st2.Store[ident.ID(id)] != load {
			t.Fatalf("store[%d] = %v, want %v", id, st2.Store[ident.ID(id)], load)
		}
	}
	if len(st2.Pending) != 1 || st2.Pending["p2"].ID != 3 || st2.Pending["p2"].Dst != 5 {
		t.Fatalf("pending %v, want exactly p2 -> dst 5", st2.Pending)
	}
	if _, torn := st2.Pending["torn"]; torn {
		t.Fatal("torn record leaked into state")
	}
	if !st2.Applied["q1"] {
		t.Fatal("applied set lost q1")
	}
	if st2.DriftRound != 2 || st2.DriftSum != 1.5 {
		t.Fatalf("drift ledger %d/%v, want 2/1.5", st2.DriftRound, st2.DriftSum)
	}
}

func TestWALSnapResetsEarlierRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(walRec{T: "pend", Pair: "old", ID: 7, Load: 7, Peer: 1})
	w.Append(walRec{T: "snap", Snap: &walSnap{
		Capacity: 100,
		VSs:      []VSRec{{ID: 5, Load: 50}},
		Pending:  []PendingCommit{{Pair: "kept", ID: 6, Load: 6, Dst: 2}},
		Applied:  []string{"a1"},
	}})
	w.Close()
	_, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, old := st.Pending["old"]; old {
		t.Fatal("snap did not reset pre-snap pending state")
	}
	if _, kept := st.Pending["kept"]; !kept {
		t.Fatal("snap dropped its own pending list")
	}
	if !st.Applied["a1"] || st.Store[ident.ID(5)] != 50 {
		t.Fatalf("snap state not restored: %+v", st)
	}
}
