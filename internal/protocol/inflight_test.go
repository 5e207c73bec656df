package protocol_test

import (
	"testing"

	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/protocol"
	"p2plb/internal/serve"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// treeWork is what the tree has charged so far: a Repair that changes
// anything charges plant or heartbeat messages, one that finds nothing
// to do charges none.
func treeWork(eng *sim.Engine) int64 {
	return eng.MessageCount(ktree.MsgPlant) + eng.MessageCount(ktree.MsgHeartbeat)
}

// guard wraps a round starter. While a round it started is in flight, a
// probe on every tick fails t if the tree has charged work since the
// round began: a Repair that changed something ran under the round. The
// round's own first Repair runs inside start, and its closing Repair in
// the event that completes it, after which the probe is gone. The
// returned count is how many rounds' closing Repair found work, i.e.
// how many rounds had something a mid-round Repair could have changed.
func guard(t *testing.T, eng *sim.Engine, start func(func(*protocol.Result, error)) error) (func(func(*protocol.Result, error)) error, *int) {
	dirty := new(int)
	return func(done func(*protocol.Result, error)) error {
		finished := false
		var base int64
		var stopProbe func()
		err := start(func(res *protocol.Result, err error) {
			finished = true
			if stopProbe != nil {
				stopProbe()
			}
			if treeWork(eng) != base {
				*dirty++
			}
			done(res, err)
		})
		if err != nil || finished {
			return err
		}
		base = treeWork(eng)
		stopProbe = eng.Every(1, func() {
			if n := treeWork(eng); n != base {
				t.Errorf("t=%d: the tree was repaired (%d plant/heartbeat messages) under a round in flight", eng.Now(), n-base)
				base = n
			}
		})
		return nil
	}, dirty
}

// roundFunc adapts a round starter to serve.RoundRunner.
type roundFunc func(func(*protocol.Result, error)) error

func (f roundFunc) StartRound(done func(*protocol.Result, error)) error { return f(done) }

// TestNoRepairWhileRoundInFlight: a round repairs the tree when it
// starts and when it ends, and nothing repairs it in between, on both
// schedulers that start rounds periodically.
func TestNoRepairWhileRoundInFlight(t *testing.T) {
	t.Run("Every", func(t *testing.T) {
		// Membership changes between rounds (in the hook) and under
		// them (a crash three ticks into every round), so a Repair
		// that ran mid-round would always find something to change.
		eng := sim.NewEngine(7)
		ring := workload.NewRing(eng, workload.RingSpec{Nodes: 128, VSPerNode: 4,
			Loads: workload.Gaussian{Mu: 12800, Sigma: 32}})
		tree, err := ktree.New(ring, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := protocol.NewRunner(ring, tree, protocol.Config{Core: core.Config{Epsilon: 0.05}, ChildTimeout: 200})
		if err != nil {
			t.Fatal(err)
		}
		churn := func() bool {
			alive := ring.AliveNodes()
			ring.RemoveNode(alive[eng.Rand().Intn(len(alive))])
			workload.Join(ring, -1, 4, nil)
			eng.ScheduleEv(3, sim.Func(func() {
				alive := ring.AliveNodes()
				if v := alive[eng.Rand().Intn(len(alive))]; v != tree.Host(tree.Root()).Owner {
					ring.RemoveNode(v)
				}
			}))
			return true
		}
		start, dirty := guard(t, eng, r.StartRound)
		rounds := 0
		stop := protocol.Every(eng, 2000, start, churn, func(_ *protocol.Result, err error) {
			if err != nil {
				t.Errorf("round failed: %v", err)
			}
			rounds++
		})
		// RunUntil rather than Run, so that a stray periodic ticker
		// beside the rounds fails the test instead of hanging it; the
		// last round has long finished by the bound.
		eng.RunUntil(20000)
		stop()
		eng.RunUntil(40000)
		if rounds < 5 || *dirty < rounds/2 {
			t.Fatalf("%d rounds, %d with mid-round membership changes: the test covers too little", rounds, *dirty)
		}
		ring.CheckInvariants()
		tree.CheckInvariants()
	})

	t.Run("serve", func(t *testing.T) {
		// serve.Server.Run freezes the membership, so no Repair under
		// its rounds can find work; the probe holds it to that.
		eng := sim.NewEngine(1)
		ring := workload.NewRing(eng, workload.RingSpec{Nodes: 48, VSPerNode: 4})
		srv, err := serve.New(eng, ring, serve.Config{Plan: workload.PlanSpec{
			Seed: 1, Requests: 8000, Objects: 1000, Rate: 2, PutFraction: 0.1, Origins: 48,
		}, Work: 100})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := ktree.New(ring, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, err := protocol.NewRunner(ring, tree, protocol.Config{Core: core.Config{Epsilon: 0.05, Loads: srv}})
		if err != nil {
			t.Fatal(err)
		}
		start, _ := guard(t, eng, r.StartRound)
		srv.UseBalancer(roundFunc(start), 1500)
		rep, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rounds < 2 {
			t.Fatalf("only %d rounds interleaved", rep.Rounds)
		}
		tree.CheckInvariants()
	})
}
