// External-package tests: lbnode's own test fixtures are free to build
// rings and engines, which the layercheck analyzer forbids inside the
// package itself.
package lbnode_test

import (
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/lbnode"
	"p2plb/internal/sim"
)

// lbi builds a valid LBI report <sum(loads), capacity, min(loads)>
// through a throwaway one-node ring (the ok flag inside core.LBI is
// deliberately unexported).
func lbi(capacity float64, loads ...float64) core.LBI {
	ring := chord.NewRing(sim.NewEngine(1), chord.Config{})
	n := ring.AddNode(-1, capacity, len(loads))
	for i, vs := range n.VServers() {
		vs.Load = loads[i]
	}
	return core.NodeLBI(n)
}

func TestLBICollectLifecycle(t *testing.T) {
	reports := []core.LBI{lbi(2, 5, 5), lbi(1, 3, 3)} // L=10 Lmin=5; L=6 Lmin=3
	col := lbnode.NewLBICollect(reports, 2)
	if col.Done() {
		t.Fatal("epoch with pending children closed early")
	}
	// Replies arrive out of child order; the machine buffers them and
	// folds in index order.
	if done := col.ChildReply(1, lbi(1, 2, 2)); done { // L=4 Lmin=2
		t.Fatal("first of two replies completed the epoch")
	}
	// A duplicate for an already-answered index is absorbed.
	if done := col.ChildReply(1, lbi(50, 50)); done {
		t.Fatal("duplicate reply completed the epoch")
	}
	if done := col.ChildReply(0, lbi(2, 1, 7)); !done { // L=8 Lmin=1
		t.Fatal("last reply did not complete the epoch")
	}
	agg := col.Aggregate()
	if agg.L != 28 || agg.C != 6 || agg.Lmin != 1 {
		t.Fatalf("aggregate = %+v, want L=28 C=6 Lmin=1", agg)
	}
	// Replies after the close are absorbed; the expiry timer lost.
	if col.ChildReply(0, lbi(100, 100)) {
		t.Error("reply after close reported completion")
	}
	if agg := col.Aggregate(); agg.L != 28 {
		t.Errorf("late reply mutated the aggregate: %+v", agg)
	}
	if _, expired := col.Expire(); expired {
		t.Error("Expire on a completed epoch claimed to expire it")
	}
}

func TestLBICollectLeafAndExpiry(t *testing.T) {
	leaf := lbnode.NewLBICollect([]core.LBI{lbi(1, 3)}, 0)
	if !leaf.Done() {
		t.Fatal("childless epoch should be complete at construction")
	}
	col := lbnode.NewLBICollect(nil, 3)
	col.ChildReply(2, lbi(1, 1))
	timedOut, expired := col.Expire()
	if !expired || timedOut != 2 {
		t.Fatalf("Expire = (%d, %v), want (2, true)", timedOut, expired)
	}
	if !col.Done() {
		t.Error("expired epoch should be closed")
	}
	if agg := col.Aggregate(); agg.L != 1 {
		t.Errorf("partial aggregate = %+v, want the one reply that arrived", agg)
	}
	if col.ChildReply(0, lbi(9, 9)) {
		t.Error("reply after expiry reported completion")
	}
}

func TestVSACollectRendezvousRules(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	light := &chord.Node{Index: 1, Alive: true}
	mkList := func(entries int) *core.PairList {
		pl := &core.PairList{}
		for i := 0; i < entries; i++ {
			vs := &chord.VServer{Owner: heavy, Load: 4}
			pl.AddOffer(vs, heavy, 0)
			pl.AddLight(5, light, 0)
		}
		return pl
	}

	// Below threshold, not root: hold everything.
	col := lbnode.NewVSACollect(mkList(2), 0)
	if pairs := col.Rendezvous(false, 30, 0.1); pairs != nil {
		t.Fatalf("below-threshold rendezvous paired %d", len(pairs))
	}
	if col.Lists().Size() != 4 {
		t.Fatalf("held size = %d, want 4", col.Lists().Size())
	}

	// Threshold reached at a non-root node: pair.
	col = lbnode.NewVSACollect(mkList(2), 0)
	if pairs := col.Rendezvous(false, 4, 0.1); len(pairs) == 0 {
		t.Fatal("threshold-reached rendezvous paired nothing")
	}

	// The root always pairs, and zero threshold means the default.
	col = lbnode.NewVSACollect(mkList(1), 0)
	if pairs := col.Rendezvous(true, 0, 0.1); len(pairs) == 0 {
		t.Fatal("root rendezvous paired nothing")
	}

	// Negative threshold: only the root pairs.
	col = lbnode.NewVSACollect(mkList(20), 0)
	if pairs := col.Rendezvous(false, -1, 0.1); pairs != nil {
		t.Fatal("negative threshold paired at a non-root node")
	}

	// An empty epoch never pairs, even at the root.
	col = lbnode.NewVSACollect(nil, 0)
	if pairs := col.Rendezvous(true, 0, 0.1); pairs != nil {
		t.Fatal("empty root epoch paired")
	}
}

func TestVSACollectEpoch(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	sub := &core.PairList{}
	sub.AddOffer(&chord.VServer{Owner: heavy, Load: 2}, heavy, 0)
	col := lbnode.NewVSACollect(nil, 2)
	if col.Done() {
		t.Fatal("pending epoch closed early")
	}
	if col.ChildReply(sub) {
		t.Fatal("first of two replies completed the epoch")
	}
	timedOut, expired := col.Expire()
	if !expired || timedOut != 1 {
		t.Fatalf("Expire = (%d, %v), want (1, true)", timedOut, expired)
	}
	if col.Lists().Size() != 1 {
		t.Fatalf("partial epoch holds %d entries, want 1", col.Lists().Size())
	}
	late := &core.PairList{}
	late.AddLight(3, heavy, 0)
	if col.ChildReply(late) {
		t.Error("reply after expiry reported completion")
	}
	if col.Lists().Size() != 1 {
		t.Error("late reply merged into a closed epoch")
	}
}

// TestVSACollectHoldsOnlyWhatArrives: a node with no deposits holds no
// list of its own. It takes over the first child list that arrives,
// merges later ones into it, and an epoch that never held an entry
// reports a nil list that reads as empty and never pairs.
func TestVSACollectHoldsOnlyWhatArrives(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	light := &chord.Node{Index: 1, Alive: true}
	first := &core.PairList{}
	first.AddOffer(&chord.VServer{Owner: heavy, Load: 2}, heavy, 0)
	col := lbnode.NewVSACollect(nil, 4)
	if col.ChildReply(nil) {
		t.Fatal("first of four replies completed the epoch")
	}
	if col.Lists() != nil {
		t.Fatal("an empty child reply gave the epoch a list")
	}
	col.ChildReply(first)
	if col.Lists() != first {
		t.Fatal("the first child list was copied, not taken over")
	}
	second := &core.PairList{}
	second.AddLight(3, light, 0)
	col.ChildReply(second)
	if !col.ChildReply(nil) {
		t.Fatal("last reply did not complete the epoch")
	}
	if held := col.Lists(); held != first || held.Size() != 2 || held.Offers() != 1 || held.OfferLoad() != 2 {
		t.Fatalf("after a second reply the epoch holds %d entries in %p, want 2 in %p", held.Size(), held, first)
	}
	if pairs := col.Rendezvous(true, 0, 0.1); len(pairs) != 1 || pairs[0].From != heavy || pairs[0].To != light {
		t.Fatalf("the root paired %v, want the offer moved heavy → light", pairs)
	}
	if col.Lists().Size() != 1 {
		t.Fatalf("after pairing the epoch holds %d entries, want the residual deficit", col.Lists().Size())
	}

	empty := lbnode.NewVSACollect(nil, 2)
	empty.ChildReply(nil)
	if !empty.ChildReply(nil) {
		t.Fatal("last empty reply did not complete the epoch")
	}
	left := empty.Lists()
	if left != nil {
		t.Fatalf("an epoch that held nothing reports %d entries", left.Size())
	}
	if left.Size() != 0 || left.Offers() != 0 || left.OfferLoad() != 0 {
		t.Fatal("a nil list does not read as empty")
	}
	if lights, offers := left.Entries(); lights != nil || offers != nil {
		t.Fatal("a nil list has entries")
	}
	if pairs := empty.Rendezvous(true, 0, 0.1); pairs != nil {
		t.Fatal("empty root epoch paired")
	}
}

func TestRosterClassifiesOnce(t *testing.T) {
	global := lbi(10, 50, 50) // L=100 C=10 Lmin=50
	n := &chord.Node{Alive: true, Capacity: 1}
	dead := &chord.Node{Alive: false, Capacity: 1}
	ro := lbnode.NewRoster(nil)
	st, ok := ro.Classify(n, global, 0, core.SubsetAuto)
	if !ok || st == nil {
		t.Fatal("first delivery did not classify")
	}
	if _, ok := ro.Classify(n, global, 0, core.SubsetAuto); ok {
		t.Error("duplicate delivery classified again")
	}
	if _, ok := ro.Classify(dead, global, 0, core.SubsetAuto); ok {
		t.Error("dead node classified")
	}
	h, l, u := ro.Census()
	if h+l+u != 1 {
		t.Errorf("census = %d/%d/%d, want exactly one node", h, l, u)
	}
}

func handoffFixture() (*lbnode.Handoff, *chord.Node, *chord.Node, *chord.VServer) {
	from := &chord.Node{Index: 0, Alive: true}
	to := &chord.Node{Index: 1, Alive: true}
	vs := &chord.VServer{Owner: from, Load: 7}
	return lbnode.NewHandoff(core.Pair{VS: vs, From: from, To: to, Load: vs.Load}), from, to, vs
}

func TestHandoffHappyPath(t *testing.T) {
	h, _, _, _ := handoffFixture()
	ack, op := h.AssignReceived()
	if !ack || op != lbnode.OpPrepare {
		t.Fatalf("assign = (%v, %v), want (true, OpPrepare)", ack, op)
	}
	if h.Phase() != lbnode.PhasePreparing {
		t.Fatalf("phase = %v, want PhasePreparing", h.Phase())
	}
	if !h.PrepareReceived() {
		t.Fatal("live receiver rejected the reservation")
	}
	if op := h.PrepareAcked(); op != lbnode.OpCommit {
		t.Fatalf("prepare-ack op = %v, want OpCommit", op)
	}
	if !h.TransferReceived() {
		t.Fatal("first commit copy rejected")
	}
	if h.Phase() != lbnode.PhaseDone || !h.Settled() {
		t.Fatalf("phase = %v, want PhaseDone", h.Phase())
	}
	// Exactly-once: a duplicated or retransmitted commit is refused.
	if h.TransferReceived() {
		t.Error("duplicate commit copy accepted")
	}
	// And a late failure signal cannot un-settle the transfer.
	if op := h.Fail(); op != lbnode.OpNone {
		t.Errorf("Fail after Done = %v, want OpNone", op)
	}
}

func TestHandoffDeadEndpoints(t *testing.T) {
	// A dead heavy endpoint is silent: no ack at all.
	h, from, _, _ := handoffFixture()
	from.Alive = false
	if ack, op := h.AssignReceived(); ack || op != lbnode.OpNone {
		t.Fatalf("dead From: assign = (%v, %v), want (false, OpNone)", ack, op)
	}

	// A dead light endpoint aborts at validation.
	h, _, to, _ := handoffFixture()
	to.Alive = false
	if ack, op := h.AssignReceived(); !ack || op != lbnode.OpAbort {
		t.Fatalf("dead To: assign = (%v, %v), want (true, OpAbort)", ack, op)
	}
	if h.Phase() != lbnode.PhaseAborted {
		t.Fatalf("phase = %v, want PhaseAborted", h.Phase())
	}

	// A VS that changed owner before the assignment arrived aborts.
	h, _, _, vs := handoffFixture()
	vs.Owner = &chord.Node{Index: 9, Alive: true}
	if _, op := h.AssignReceived(); op != lbnode.OpAbort {
		t.Fatalf("moved VS: op = %v, want OpAbort", op)
	}
}

func TestHandoffMidFlightFailures(t *testing.T) {
	// Retry exhaustion in the prepare phase aborts.
	h, _, _, _ := handoffFixture()
	h.AssignReceived()
	if op := h.Fail(); op != lbnode.OpAbort {
		t.Fatalf("prepare failure = %v, want OpAbort", op)
	}
	if op := h.Fail(); op != lbnode.OpNone {
		t.Errorf("second failure = %v, want OpNone (already settled)", op)
	}

	// The receiver refuses reservations once the pairing settled.
	if h.PrepareReceived() {
		t.Error("aborted handoff accepted a reservation")
	}

	// Sender loses the VS between prepare and commit.
	h, _, _, vs := handoffFixture()
	h.AssignReceived()
	vs.Owner = &chord.Node{Index: 9, Alive: true}
	if op := h.PrepareAcked(); op != lbnode.OpAbort {
		t.Fatalf("lost VS at commit = %v, want OpAbort", op)
	}

	// Receiver dies before the commit copy lands: the copy is refused
	// (silent), so the sender's retries will drain into an abort.
	h, _, to, _ := handoffFixture()
	h.AssignReceived()
	h.PrepareAcked()
	to.Alive = false
	if h.TransferReceived() {
		t.Error("commit accepted at a dead receiver")
	}
	if op := h.Fail(); op != lbnode.OpAbort {
		t.Fatalf("commit failure = %v, want OpAbort", op)
	}
}
