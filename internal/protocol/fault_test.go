package protocol

// Fault-tolerance tests: the protocol's reliable delivery and two-phase
// handoff against the deterministic fault-injection layer, with
// chord.Ring.CheckConservation asserting after every round that no
// virtual server is lost or double-hosted and total load is conserved.

import (
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/sim"
)

// TestScratchDroppedAfterUncleanRound is the regression test for the
// recycling condition: per-round maps may be reused only after a round
// with no timeouts, no aborted transfers and no retransmissions.
func TestScratchDroppedAfterUncleanRound(t *testing.T) {
	ring, tree := fixture(21, 96, 4)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}

	// Clean round: the scratch is handed back and reused.
	if _, err := r.RunRound(); err != nil {
		t.Fatal(err)
	}
	first := r.scratch
	if first == nil {
		t.Fatal("clean round did not recycle its scratch")
	}
	if _, err := r.RunRound(); err != nil {
		t.Fatal(err)
	}
	if r.scratch != first {
		t.Fatal("second clean round did not reuse the same scratch")
	}

	// Unclean round (timeouts): crash a batch of nodes mid-LBI.
	eng := ring.Engine()
	var out *Result
	if err := r.StartRound(func(res *Result, err error) { out = res }); err != nil {
		t.Fatal(err)
	}
	eng.ScheduleEv(1, sim.Func(func() {
		alive := ring.AliveNodes()
		for i := 0; i < 12; i++ {
			victim := alive[len(alive)-1-i]
			if victim == tree.Host(tree.Root()).Owner {
				continue
			}
			ring.RemoveNode(victim)
		}
	}))
	eng.Run()
	if out == nil || out.TimedOutChildren == 0 {
		t.Fatalf("crash round did not time out as intended: %+v", out)
	}
	if r.scratch != nil {
		t.Fatal("scratch recycled after a round with timed-out epochs")
	}

	// Unclean round (retries): 20% loss forces retransmissions even when
	// every epoch eventually completes.
	if _, err := tree.Repair(); err != nil {
		t.Fatal(err)
	}
	in, err := faults.New(21, faults.Plan{Drop: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	defer in.Detach()
	for i := 0; i < 10; i++ {
		out, roundErr := r.RunRound()
		if roundErr != nil {
			if _, err := tree.Repair(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if out.Retries > 0 {
			if r.scratch != nil {
				t.Fatal("scratch recycled after a round with retransmissions")
			}
			return
		}
	}
	t.Fatal("20% loss never produced a retransmission in 10 rounds")
}

// prepareKiller is a MessageFilter that delivers everything verbatim
// but kills one endpoint of the first VST prepare it sees — the
// deterministic "died between prepare and commit" scenario.
type prepareKiller struct {
	ring       *chord.Ring
	killSender bool
	killed     bool
	victim     *chord.Node
}

func (f *prepareKiller) Deliveries(kind string, key uint64, src, dst int, now, cost sim.Time) []sim.Time {
	if kind == MsgPrepare && !f.killed {
		f.killed = true
		idx := dst
		if f.killSender {
			idx = src
		}
		f.victim = f.ring.Nodes()[idx]
		// The prepare itself is in flight; the endpoint dies before the
		// commit can arrive.
		f.ring.RemoveNode(f.victim)
	}
	return []sim.Time{0}
}

// TestCrashBetweenPrepareAndCommit kills the receiver (then, in a second
// run, the sender) of the first handoff right as its prepare is sent:
// the pairing must abort, the books at both endpoints must stay
// consistent, and load must be conserved.
func TestCrashBetweenPrepareAndCommit(t *testing.T) {
	for _, killSender := range []bool{false, true} {
		name := "receiver-dies"
		if killSender {
			name = "sender-dies"
		}
		t.Run(name, func(t *testing.T) {
			ring, tree := fixture(22, 96, 4)
			base := ring.SnapshotConservation()
			filter := &prepareKiller{ring: ring, killSender: killSender}
			ring.Engine().SetFilter(filter)
			r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
			if err != nil {
				t.Fatal(err)
			}
			out, roundErr := r.RunRound()
			if roundErr != nil {
				t.Fatal(roundErr)
			}
			if !filter.killed {
				t.Fatal("no prepare message was ever sent — fixture produced no pairs")
			}
			if out.AbortedTransfers == 0 {
				t.Error("killing a handoff endpoint between prepare and commit did not abort any transfer")
			}
			// The dead endpoint's book is empty and nothing points at it.
			if got := len(filter.victim.VServers()); got != 0 {
				t.Errorf("dead endpoint still hosts %d virtual servers", got)
			}
			for _, a := range out.Assignments {
				if a.VS.Owner != a.To {
					t.Error("completed assignment whose VS is not at its destination")
				}
			}
			if err := ring.CheckConservation(base); err != nil {
				t.Errorf("conservation violated: %v", err)
			}
			ring.CheckInvariants()
		})
	}
}

// TestCommitLossNeverLosesVS blocks every commit message: all handoffs
// must abort after their retries drain, with every paired virtual
// server still hosted by its sender.
func TestCommitLossNeverLosesVS(t *testing.T) {
	ring, tree := fixture(23, 96, 4)
	base := ring.SnapshotConservation()
	in, err := faults.New(23, faults.Plan{DropByKind: map[string]float64{MsgTransfer: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	out, roundErr := r.RunRound()
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	if out.AbortedTransfers == 0 {
		t.Fatal("blocking all commits aborted nothing — no pairs?")
	}
	if len(out.Assignments) != 0 {
		t.Errorf("%d transfers completed despite total commit loss", len(out.Assignments))
	}
	if out.Retries == 0 {
		t.Error("total commit loss should have forced retransmissions")
	}
	if err := ring.CheckConservation(base); err != nil {
		t.Errorf("conservation violated: %v", err)
	}
	if got, want := ring.NumVServers(), base.NumVS; got != want {
		t.Errorf("VS population changed: %d vs %d", got, want)
	}
	ring.CheckInvariants()
}

// TestDuplicatedCommitsAreIdempotent duplicates every message at a high
// rate: receiver dedup must keep each transfer applied exactly once.
func TestDuplicatedCommitsAreIdempotent(t *testing.T) {
	ring, tree := fixture(24, 96, 4)
	base := ring.SnapshotConservation()
	in, err := faults.New(24, faults.Plan{Duplicate: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	out, roundErr := r.RunRound()
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	if len(out.Assignments) == 0 {
		t.Fatal("no transfers completed under duplication")
	}
	seen := make(map[*chord.VServer]bool)
	for _, a := range out.Assignments {
		if seen[a.VS] {
			t.Errorf("virtual server %s transferred twice", a.VS.ID)
		}
		seen[a.VS] = true
	}
	if err := ring.CheckConservation(base); err != nil {
		t.Errorf("conservation violated: %v", err)
	}
	ring.CheckInvariants()
}

// TestLossAndCrashesConvergeWithConservation is the acceptance
// scenario: 10% uniform loss plus a mid-round crash schedule. Every
// round must end with conservation intact, and the system must still
// converge to within 2× the fault-free imbalance.
func TestLossAndCrashesConvergeWithConservation(t *testing.T) {
	const rounds = 6

	// Fault-free baseline imbalance after the same number of rounds.
	cleanRing, cleanTree := fixture(25, 128, 4)
	rClean, err := NewRunner(cleanRing, cleanTree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := rClean.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	cleanGini := core.UnitLoadGini(cleanRing)

	// Faulty run: same fixture, 10% loss, crashes landing mid-round.
	ring, tree := fixture(25, 128, 4)
	base := ring.SnapshotConservation()
	in, err := faults.New(25, faults.Plan{
		Drop: 0.10,
		Crashes: []faults.Crash{
			{At: 200, Node: 40},
			{At: 5000, Node: 41, Restart: 40000},
			{At: 9000, Node: 42},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attach(ring); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 500})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < rounds; i++ {
		out, roundErr := r.RunRound()
		if roundErr != nil {
			// A failed round must still leave the books consistent; the
			// tree may need a repair before the next attempt.
			if _, err := tree.Repair(); err != nil {
				t.Fatal(err)
			}
		} else if out != nil {
			completed++
		}
		if err := ring.CheckConservation(base); err != nil {
			t.Fatalf("round %d: conservation violated: %v", i, err)
		}
		ring.CheckInvariants()
	}
	if completed == 0 {
		t.Fatal("no round completed under 10% loss")
	}
	faultyGini := core.UnitLoadGini(ring)
	t.Logf("gini: clean=%.4f faulty=%.4f (completed %d/%d rounds, dropped=%d, crashes=%d)",
		cleanGini, faultyGini, completed, rounds, in.Dropped(), in.Crashes())
	if limit := 2 * cleanGini; faultyGini > limit {
		t.Errorf("faulty imbalance %.4f exceeds 2× fault-free %.4f", faultyGini, cleanGini)
	}
}
