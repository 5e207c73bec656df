package cluster

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"p2plb/internal/ident"
	"p2plb/internal/wire"
)

// testSpec builds a spec with fast retry knobs and pre-reserved ports.
func testSpec(t *testing.T, procs int, seed int64) *Spec {
	t.Helper()
	addrs, err := ReserveAddrs(procs)
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		ClusterID:    fmt.Sprintf("t-%s", t.Name()),
		Seed:         seed,
		Procs:        procs,
		VSPerNode:    5,
		Addrs:        addrs,
		EpochTimeout: 900 * time.Millisecond,
		RetryBase:    10 * time.Millisecond,
		RetryCap:     100 * time.Millisecond,
		MaxAttempts:  6,
	}
}

func startDaemon(t *testing.T, spec *Spec, rank int, dir string, hook func(pair, phase string)) *Daemon {
	t.Helper()
	d, err := NewDaemon(DaemonConfig{Spec: spec, Rank: rank, DataDir: dir, OnPhase: hook})
	if err != nil {
		t.Fatalf("rank %d: %v", rank, err)
	}
	return d
}

func statuses(t *testing.T, spec *Spec) []Status {
	t.Helper()
	sts := make([]Status, spec.Procs)
	for r := 0; r < spec.Procs; r++ {
		out, err := wire.Call(spec.Addrs[r], spec.ClusterID, "status", nil, 2*time.Second)
		if err != nil {
			t.Fatalf("status rank %d: %v", r, err)
		}
		if err := json.Unmarshal(out, &sts[r]); err != nil {
			t.Fatal(err)
		}
	}
	return sts
}

// waitQuiesced polls until every daemon finished round r with no open
// escrows or live handoffs — twice in a row, like Supervisor.Settle, so
// an assign still in flight between two polls cannot fake quiescence.
func waitQuiesced(t *testing.T, spec *Spec, r uint64, timeout time.Duration) []Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	clean := 0
	for time.Now().Before(deadline) {
		sts := statuses(t, spec)
		ok := true
		for _, st := range sts {
			if st.Done < r || st.Pending > 0 || st.Active > 0 {
				ok = false
			}
		}
		if ok {
			clean++
			if clean >= 2 {
				return sts
			}
		} else {
			clean = 0
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("round %d did not quiesce within %v", r, timeout)
	return nil
}

// TestInProcessRound: a 7-daemon in-process cluster runs three
// balancing rounds over real TCP; conservation must hold after each.
func TestInProcessRound(t *testing.T) {
	spec := testSpec(t, 7, 11)
	dir := t.TempDir()
	ds := make([]*Daemon, spec.Procs)
	for r := range ds {
		ds[r] = startDaemon(t, spec, r, dir, nil)
		defer ds[r].Close()
	}
	for round := uint64(1); round <= 3; round++ {
		triggerRound(t, spec, round)
		sts := waitQuiesced(t, spec, round, 15*time.Second)
		if err := CheckConservation(spec, sts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The skewed initial inventory must have produced actual transfers,
	// or this test proves nothing about the VST path.
	var applies int64
	for _, d := range ds {
		if reg := d.Registry(); reg != nil {
			applies += reg.Snapshot().Counters["cluster.applies"]
		}
	}
	if applies == 0 {
		t.Fatal("three rounds produced zero transfers — inventory not skewed enough to exercise VST")
	}
}

// TestDriftLedger: drift changes loads but the WAL ledger keeps the
// conservation books exact, including across a restart.
func TestDriftLedger(t *testing.T) {
	spec := testSpec(t, 3, 5)
	spec.DriftSigma = 0.3
	dir := t.TempDir()
	ds := make([]*Daemon, spec.Procs)
	for r := range ds {
		ds[r] = startDaemon(t, spec, r, dir, nil)
	}
	for round := uint64(1); round <= 2; round++ {
		triggerRound(t, spec, round)
		sts := waitQuiesced(t, spec, round, 15*time.Second)
		if err := CheckConservation(spec, sts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Restart rank 1; its drift ledger must survive via the WAL.
	before := statuses(t, spec)[1]
	if before.DriftSum == 0 {
		t.Fatal("drift never applied at rank 1")
	}
	ds[1].Close()
	ds[1] = startDaemon(t, spec, 1, dir, nil)
	after := statuses(t, spec)[1]
	if after.DriftSum != before.DriftSum || after.DriftRound != before.DriftRound {
		t.Fatalf("drift ledger lost in restart: %v/%d -> %v/%d",
			before.DriftSum, before.DriftRound, after.DriftSum, after.DriftRound)
	}
	if err := CheckConservation(spec, statuses(t, spec)); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		d.Close()
	}
}

// phaseRecorder collects handoff phase transitions for assertions.
type phaseRecorder struct {
	mu     sync.Mutex
	events []string
	waits  map[string]chan struct{}
}

func newPhaseRecorder(waitOn ...string) *phaseRecorder {
	pr := &phaseRecorder{waits: make(map[string]chan struct{})}
	for _, w := range waitOn {
		pr.waits[w] = make(chan struct{})
	}
	return pr
}

func (pr *phaseRecorder) hook(pair, phase string) {
	pr.mu.Lock()
	pr.events = append(pr.events, phase)
	if ch, ok := pr.waits[phase]; ok {
		select {
		case <-ch: // already fired
		default:
			close(ch)
		}
	}
	pr.mu.Unlock()
}

// wait returns the (pre-registered, never-removed) channel for a phase;
// safe to fetch before or after the phase fires.
func (pr *phaseRecorder) wait(t *testing.T, phase string) chan struct{} {
	t.Helper()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	ch := pr.waits[phase]
	if ch == nil {
		t.Fatalf("phase %q was not registered with newPhaseRecorder", phase)
	}
	return ch
}

func (pr *phaseRecorder) count(phase string) int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	n := 0
	for _, e := range pr.events {
		if e == phase {
			n++
		}
	}
	return n
}

func waitCh(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// injectAssign hands the sender daemon a rendezvous assignment exactly
// as the wire would, picking one VS from its current store.
func injectAssign(t *testing.T, d *Daemon, seq uint64, to int) (string, ident.ID) {
	t.Helper()
	d.mu.Lock()
	var id ident.ID
	var found bool
	for vid := range d.store {
		if !found || ident.Compare(vid, id) < 0 {
			id, found = vid, true
		}
	}
	d.mu.Unlock()
	if !found {
		t.Fatal("sender has no virtual servers")
	}
	pair := pairID(1, id, d.rank, to)
	body, _ := json.Marshal(assignBody{Pair: pair, ID: id, Load: 1, From: d.rank, To: to})
	d.handle(wire.Msg{Seq: seq, Src: to, Kind: "assign", Round: 1, Body: body})
	return pair, id
}

func storeHas(d *Daemon, id ident.ID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.store[id]
	return ok
}

func pendingCount(d *Daemon) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHandoffCrashPhases is the satellite-3 table: a process death at
// each phase of the two-phase wire transfer must neither lose nor
// duplicate the virtual server after WAL-replay recovery.
func TestHandoffCrashPhases(t *testing.T) {
	t.Run("receiver-dead-at-assign", func(t *testing.T) {
		// The receiver is already dead when the assignment arrives: the
		// prepare exhausts its bounded retries and the handoff aborts
		// with the VS still at the sender. Nothing durable changed.
		spec := testSpec(t, 2, 21)
		dir := t.TempDir()
		rec := newPhaseRecorder("abort")
		snd := startDaemon(t, spec, 0, dir, rec.hook)
		defer snd.Close()
		rcv := startDaemon(t, spec, 1, dir, nil)
		rcv.Close() // dead before the assign

		_, id := injectAssign(t, snd, 100, 1)
		waitCh(t, rec.wait(t, "abort"), "abort")
		if !storeHas(snd, id) {
			t.Fatal("aborted handoff lost the VS at the sender")
		}
		if pendingCount(snd) != 0 {
			t.Fatal("aborted handoff left an open escrow")
		}
		rcv2 := startDaemon(t, spec, 1, dir, nil)
		defer rcv2.Close()
		if storeHas(rcv2, id) {
			t.Fatal("receiver restart conjured the VS from nowhere")
		}
	})

	t.Run("receiver-dead-between-prepare-ack-and-commit", func(t *testing.T) {
		// The receiver acks the prepare, then dies before the commit
		// arrives. The sender has escrowed the VS (WAL pend) and drives
		// the commit unboundedly; the restarted receiver applies it
		// exactly once.
		spec := testSpec(t, 2, 22)
		dir := t.TempDir()
		var rcv *Daemon
		rec := newPhaseRecorder("escrow", "commit-acked")
		sndHook := func(pair, phase string) {
			if phase == "escrow" {
				rcv.Close() // dies with the commit still unsent
			}
			rec.hook(pair, phase)
		}
		snd := startDaemon(t, spec, 0, dir, sndHook)
		defer snd.Close()
		rcv = startDaemon(t, spec, 1, dir, nil)

		_, id := injectAssign(t, snd, 100, 1)
		waitCh(t, rec.wait(t, "escrow"), "escrow")
		if storeHas(snd, id) {
			t.Fatal("escrowed VS still in sender store")
		}
		time.Sleep(150 * time.Millisecond) // a few commit retries against the dead receiver
		rcvRec := newPhaseRecorder("apply")
		rcv2 := startDaemon(t, spec, 1, dir, rcvRec.hook)
		defer rcv2.Close()
		waitCh(t, rcvRec.wait(t, "apply"), "apply after restart")
		waitCh(t, rec.wait(t, "commit-acked"), "commit ack")
		if !storeHas(rcv2, id) || storeHas(snd, id) {
			t.Fatal("VS not exactly at the receiver after recovery")
		}
		waitCond(t, "escrow close", func() bool { return pendingCount(snd) == 0 })
		if n := rcvRec.count("apply"); n != 1 {
			t.Fatalf("transfer applied %d times, want 1", n)
		}
	})

	t.Run("both-dead-during-commit", func(t *testing.T) {
		// Receiver dies before the commit lands, then the sender dies
		// too. The sender's restart replays the WAL pend record and
		// resumes the unbounded commit; the receiver's restart applies
		// it. Exactly one copy survives.
		spec := testSpec(t, 2, 23)
		dir := t.TempDir()
		var rcv *Daemon
		rec := newPhaseRecorder("escrow")
		sndHook := func(pair, phase string) {
			if phase == "escrow" {
				rcv.Close()
			}
			rec.hook(pair, phase)
		}
		snd := startDaemon(t, spec, 0, dir, sndHook)
		rcv = startDaemon(t, spec, 1, dir, nil)

		_, id := injectAssign(t, snd, 100, 1)
		waitCh(t, rec.wait(t, "escrow"), "escrow")
		snd.Close() // sender dies with the escrow open

		sndRec := newPhaseRecorder("commit-acked")
		snd2 := startDaemon(t, spec, 0, dir, sndRec.hook)
		defer snd2.Close()
		if pendingCount(snd2) != 1 {
			t.Fatal("WAL replay did not recover the open escrow")
		}
		rcvRec := newPhaseRecorder("apply")
		rcv2 := startDaemon(t, spec, 1, dir, rcvRec.hook)
		defer rcv2.Close()
		waitCh(t, rcvRec.wait(t, "apply"), "apply after double restart")
		waitCh(t, sndRec.wait(t, "commit-acked"), "commit ack after double restart")
		if !storeHas(rcv2, id) || storeHas(snd2, id) {
			t.Fatal("VS not exactly at the receiver after double recovery")
		}
		waitCond(t, "escrow close", func() bool { return pendingCount(snd2) == 0 })
	})

	t.Run("receiver-wal-fails-at-commit", func(t *testing.T) {
		// The receiver is up but cannot make the transfer durable. It
		// must not acknowledge the commit: an acknowledged commit closes
		// the sender's escrow, and the VS would be on neither rank. The
		// unbounded commit keeps retrying until a receiver with a working
		// log applies it.
		spec := testSpec(t, 2, 26)
		dir := t.TempDir()
		rec := newPhaseRecorder("escrow", "commit-acked")
		snd := startDaemon(t, spec, 0, dir, rec.hook)
		defer snd.Close()
		rcv := startDaemon(t, spec, 1, dir, nil)
		rcv.wal.Close() // every append from here on fails

		_, id := injectAssign(t, snd, 100, 1)
		waitCh(t, rec.wait(t, "escrow"), "escrow")
		waitCond(t, "commit retries", func() bool { return counter("wire.retries", snd) >= 3 })
		if pendingCount(snd) != 1 || rec.count("commit-acked") != 0 {
			t.Fatal("commit acknowledged by a receiver that could not log it")
		}
		rcv.Close()
		rcv2 := startDaemon(t, spec, 1, dir, nil)
		defer rcv2.Close()
		waitCh(t, rec.wait(t, "commit-acked"), "commit ack")
		if !storeHas(rcv2, id) || storeHas(snd, id) {
			t.Fatal("VS not exactly at the receiver once its log worked")
		}
	})

	t.Run("duplicate-commit-after-receiver-restart", func(t *testing.T) {
		// The transfer completed, the receiver restarts (losing the
		// transport's dedup window), and a stale retransmission of the
		// commit arrives. Only the WAL's applied-set stands between that
		// duplicate and a double-hosted VS.
		spec := testSpec(t, 2, 24)
		dir := t.TempDir()
		rec := newPhaseRecorder("commit-acked")
		snd := startDaemon(t, spec, 0, dir, rec.hook)
		defer snd.Close()
		rcvRec := newPhaseRecorder("apply")
		rcv := startDaemon(t, spec, 1, dir, rcvRec.hook)

		pair, id := injectAssign(t, snd, 100, 1)
		waitCh(t, rcvRec.wait(t, "apply"), "apply")
		waitCh(t, rec.wait(t, "commit-acked"), "commit ack")
		rcv.Close()

		rcvRec2 := newPhaseRecorder("commit-dup")
		rcv2 := startDaemon(t, spec, 1, dir, rcvRec2.hook)
		defer rcv2.Close()
		// Replay the commit by hand — a retransmission from before the
		// restart, with a sequence number the new process never saw.
		body, _ := json.Marshal(transferBody{Pair: pair, ID: id, Load: 1, From: 0, To: 1})
		rcv2.handle(wire.Msg{Seq: 999, Src: 0, Kind: "commit", Body: body})
		waitCh(t, rcvRec2.wait(t, "commit-dup"), "duplicate suppression")
		if rcvRec2.count("apply") != 0 {
			t.Fatal("duplicate commit re-applied after restart")
		}
		if !storeHas(rcv2, id) {
			t.Fatal("VS missing at receiver")
		}
	})
}

// counter sums one counter over the daemons' registries (nil daemons,
// closed and not yet restarted, are skipped).
func counter(name string, ds ...*Daemon) int64 {
	var n int64
	for _, d := range ds {
		if d == nil {
			continue
		}
		if reg := d.Registry(); reg != nil {
			n += reg.Snapshot().Counters[name]
		}
	}
	return n
}

func triggerRound(t *testing.T, spec *Spec, r uint64) {
	t.Helper()
	if _, err := wire.Call(spec.Addrs[0], spec.ClusterID, "round", roundBody{Round: r}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

// testMidRoundRestart kills one rank, triggers round 2 while it is down
// and restarts it mid-round. The trigger is sent once: the restarted
// rank's handshakes tell its neighbours it is back, and their re-feed is
// all that carries the round to it. The round must quiesce with
// conservation intact and the victim must have taken part in it.
func testMidRoundRestart(t *testing.T, victim int) {
	spec := testSpec(t, 7, 31)
	dir := t.TempDir()
	ds := make([]*Daemon, spec.Procs)
	for r := range ds {
		ds[r] = startDaemon(t, spec, r, dir, nil)
	}
	defer func() {
		for _, d := range ds {
			if d != nil {
				d.Close()
			}
		}
	}()

	// Round 1 cleanly first, so there is state worth disturbing.
	triggerRound(t, spec, 1)
	waitQuiesced(t, spec, 1, 15*time.Second)

	ds[victim].Close()
	ds[victim] = nil
	if victim == 0 {
		// The root is where the trigger goes: it died just after
		// forwarding it, and its children are mid-round with nobody to
		// report to.
		for _, c := range spec.Children(0) {
			ds[c].handle(wire.Msg{Seq: 1000, Src: 0, Kind: "start", Round: 2})
		}
	} else {
		triggerRound(t, spec, 2)
	}
	time.Sleep(300 * time.Millisecond)
	ds[victim] = startDaemon(t, spec, victim, dir, nil)
	sts := waitQuiesced(t, spec, 2, 20*time.Second)
	if err := CheckConservation(spec, sts); err != nil {
		t.Fatal(err)
	}
	if sts[victim].Started != 2 {
		t.Fatalf("restarted rank %d entered round %d, want 2", victim, sts[victim].Started)
	}
	if n := counter("wire.peer_restarts", ds...); n == 0 {
		t.Fatal("no neighbour noticed the restart")
	}
}

// TestRoundSurvivesInteriorRestart: rank 1, parent of 3 and 4, is down
// when round 2 starts and comes back mid-round.
func TestRoundSurvivesInteriorRestart(t *testing.T) { testMidRoundRestart(t, 1) }

// TestRoundSurvivesRootRestart: the root dies holding round 2's trigger
// and comes back with no memory of it; its children's re-fed LBI reports
// are what start the round there.
func TestRoundSurvivesRootRestart(t *testing.T) { testMidRoundRestart(t, 0) }

// TestRoundAfterLeafRestartIsClean: the round after a leaf restart costs
// a round, not two epoch timeouts. The restarted leaf numbers its
// messages from 1 again; its parent, which stayed up, must not take its
// fresh LBI and VSA replies for duplicates of the old life's.
func TestRoundAfterLeafRestartIsClean(t *testing.T) {
	spec := testSpec(t, 4, 41)
	spec.EpochTimeout = 5 * time.Second
	dir := t.TempDir()
	ds := make([]*Daemon, spec.Procs)
	for r := range ds {
		ds[r] = startDaemon(t, spec, r, dir, nil)
	}
	defer func() {
		for _, d := range ds {
			d.Close()
		}
	}()
	for round := uint64(1); round <= 3; round++ {
		triggerRound(t, spec, round)
		waitQuiesced(t, spec, round, 15*time.Second)
	}
	ds[3].Close()
	ds[3] = startDaemon(t, spec, 3, dir, nil)

	begin := time.Now()
	triggerRound(t, spec, 4)
	sts := waitQuiesced(t, spec, 4, 15*time.Second)
	if took := time.Since(begin); took > time.Second {
		t.Errorf("round after a leaf restart took %v, want < 1s", took)
	}
	if err := CheckConservation(spec, sts); err != nil {
		t.Fatal(err)
	}
	if l, v := counter("cluster.lbi_expired", ds...), counter("cluster.vsa_expired", ds...); l != 0 || v != 0 {
		t.Fatalf("collectors expired: lbi %d, vsa %d (wire.dups %d) — a live child's reply was dropped",
			l, v, counter("wire.dups", ds...))
	}
	if n := counter("wire.peer_restarts", ds[1]); n != 1 {
		t.Fatalf("rank 1 counted %d restarts of its child, want 1", n)
	}
}

// TestSenderRestartOpenEscrowReceiverUp: a sender that restarts with an
// open escrow resumes the commit as the first message of its new life.
// The receiver stayed up and has seen the old life's first messages; if
// it takes the resumed commit for one of those it acknowledges without
// applying, the sender closes the escrow, and the VS is on neither rank.
func TestSenderRestartOpenEscrowReceiverUp(t *testing.T) {
	spec := testSpec(t, 2, 25)
	dir := t.TempDir()
	rec := newPhaseRecorder("commit-acked")
	snd := startDaemon(t, spec, 0, dir, rec.hook)
	rcv := startDaemon(t, spec, 1, dir, nil)
	defer rcv.Close()

	// One whole handoff: the receiver has now seen the sender's seq 1
	// (prepare) and 2 (commit).
	_, first := injectAssign(t, snd, 100, 1)
	waitCh(t, rec.wait(t, "commit-acked"), "first handoff")
	if !storeHas(rcv, first) {
		t.Fatal("first handoff did not land")
	}
	snd.Close()

	// The sender died between escrowing a second VS and sending its
	// commit: the WAL holds the pend, nothing reached the wire.
	var second ident.ID
	for _, vs := range DeriveInventories(spec.Seed, spec.Procs, spec.VSPerNode)[0].VSs {
		if vs.ID != first {
			second = vs.ID
			break
		}
	}
	pair := pairID(2, second, 0, 1)
	wal, _, err := OpenWAL(filepath.Join(dir, "lbd-0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(walRec{T: "pend", Pair: pair, ID: second, Load: 7, Peer: 1}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	snd2 := startDaemon(t, spec, 0, dir, nil)
	defer snd2.Close()
	waitCond(t, "escrow close", func() bool { return pendingCount(snd2) == 0 })
	if !storeHas(rcv, second) {
		t.Fatalf("VS %s lost: escrow closed at the sender, never applied at the receiver", second)
	}
	if storeHas(snd2, second) {
		t.Fatalf("VS %s on both ranks", second)
	}
}

func TestSpecTreeShape(t *testing.T) {
	s := &Spec{Procs: 8, K: 2}
	if p := s.Parent(0); p != -1 {
		t.Fatalf("root parent %d", p)
	}
	cases := []struct {
		rank   int
		parent int
		kids   []int
	}{
		{0, -1, []int{1, 2}},
		{1, 0, []int{3, 4}},
		{2, 0, []int{5, 6}},
		{3, 1, []int{7}},
		{7, 3, nil},
	}
	for _, c := range cases {
		if c.rank != 0 && s.Parent(c.rank) != c.parent {
			t.Fatalf("parent(%d) = %d, want %d", c.rank, s.Parent(c.rank), c.parent)
		}
		kids := s.Children(c.rank)
		if len(kids) != len(c.kids) {
			t.Fatalf("children(%d) = %v, want %v", c.rank, kids, c.kids)
		}
		for i := range kids {
			if kids[i] != c.kids[i] {
				t.Fatalf("children(%d) = %v, want %v", c.rank, kids, c.kids)
			}
		}
	}
}

func TestDeriveInventoriesDeterministic(t *testing.T) {
	a := DeriveInventories(9, 8, 5)
	b := DeriveInventories(9, 8, 5)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("inventory derivation is not deterministic")
	}
	seen := make(map[ident.ID]bool)
	for _, inv := range a {
		if len(inv.VSs) != 5 {
			t.Fatalf("rank has %d VSs, want 5", len(inv.VSs))
		}
		for _, vs := range inv.VSs {
			if seen[vs.ID] {
				t.Fatalf("duplicate id %s across ranks", vs.ID)
			}
			seen[vs.ID] = true
			if vs.Load <= 0 {
				t.Fatalf("non-positive load %v", vs.Load)
			}
		}
	}
}
