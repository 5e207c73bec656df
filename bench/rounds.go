package main

import (
	"fmt"
	"math"
	"time"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/ktree"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

const (
	vsPerNode = 5
	treeK     = 2
	epsilon   = 0.05
)

// fixture is a populated ring with its K-nary tree.
type fixture struct {
	eng   *sim.Engine
	ring  *chord.Ring
	tree  *ktree.Tree
	setup time.Duration // host time of the three build sections
}

// buildFixture populates a ring of n Gnutella-capacity nodes, assigns
// Gaussian loads (or none, when the serving layer will observe them)
// and builds the tree, each as its own timed section.
func (p *pass) buildFixture(seed int64, n int, loads bool) (*fixture, error) {
	profile := workload.GnutellaProfile()
	fx := &fixture{eng: sim.NewEngine(seed)}
	fx.ring = chord.NewRing(fx.eng, chord.Config{})

	d, m := p.timed("chord.BulkAddNodes", "chord", fx.eng, func() {
		fx.ring.BulkAddNodes(n, vsPerNode,
			func(int) topology.NodeID { return -1 },
			func(int) float64 { return profile.Sample(fx.eng.Rand()) })
	})
	fx.setup += d
	p.obs("chord.bulk_add_ms", ms(d))
	p.obs("chord.bulk_add_allocs", float64(m.Allocs))

	d, _ = p.timed("workload.load_assign", "workload", fx.eng, func() {
		if !loads {
			return
		}
		mu := float64(n) * 100
		model := workload.Gaussian{Mu: mu, Sigma: mu / 200}
		for _, vs := range fx.ring.VServers() {
			vs.Load = model.Load(fx.eng.Rand(), fx.ring.RegionOf(vs).Fraction())
		}
	})
	fx.setup += d
	p.obs("workload.load_assign_ms", ms(d))

	var err error
	d, m = p.timed("ktree.Build", "ktree", fx.eng, func() {
		if fx.tree, err = ktree.New(fx.ring, treeK); err == nil {
			err = fx.tree.Build()
		}
	})
	if err != nil {
		return nil, err
	}
	fx.setup += d
	p.obs("ktree.build_ms", ms(d))
	p.obs("ktree.build_allocs", float64(m.Allocs))
	p.obs("ktree.build_alloc_mb", m.mb())
	p.obs("ktree.nodes_per_vs", float64(fx.tree.NumNodes())/float64(fx.ring.NumVServers()))
	p.obs("ktree.height", float64(fx.tree.Height()))
	p.mix(uint64(fx.tree.NumNodes()))
	p.mix(uint64(fx.tree.Height()))
	p.check("tree shape", checkTreeShape(fx.tree, fx.ring.NumVServers()))
	return fx, nil
}

// checkTreeShape is the compressed-tree guard: near log2(V) deep and
// near-linear in V.
func checkTreeShape(tree *ktree.Tree, vss int) error {
	if lim := 2 * int(math.Ceil(math.Log2(float64(vss)))); tree.Height() > lim {
		return fmt.Errorf("tree height %d exceeds 2*log2(V) = %d", tree.Height(), lim)
	}
	if lim := 5 * vss; tree.NumNodes() > lim {
		return fmt.Errorf("%d KT nodes exceed 5 per VS", tree.NumNodes())
	}
	return nil
}

// churn replaces 1% of the nodes (the lowest-indexed alive ones leave,
// as many join) and repairs the tree, cycles times. Each cycle is one
// observation of recover_ms_p50: what the system pays to absorb a
// membership disturbance.
func (p *pass) churn(fx *fixture, cycles int) {
	profile := workload.GnutellaProfile()
	for c := 0; c < cycles; c++ {
		base := fx.ring.SnapshotConservation()
		k := len(fx.ring.AliveNodes()) / 100
		if k < 1 {
			k = 1
		}
		dc, _ := p.timed("chord.churn", "chord", fx.eng, func() {
			alive := fx.ring.AliveNodes()
			for i := 0; i < k && i < len(alive); i++ {
				fx.ring.RemoveNode(alive[i])
			}
			for i := 0; i < k; i++ {
				fx.ring.AddNode(-1, profile.Sample(fx.eng.Rand()), vsPerNode)
			}
		})
		var changes int
		var err error
		// The churn allocates next to nothing; the heap is as the
		// collection before it left it.
		dr, m := p.span("ktree.Repair", "ktree", fx.eng, func() {
			changes, err = fx.tree.Repair()
		})
		p.check("tree repair", err)
		p.guard("tree invariants after repair", fx.tree.CheckInvariants)
		p.check("conservation across churn", fx.ring.CheckConservation(base))
		p.check("tree shape after repair", checkTreeShape(fx.tree, fx.ring.NumVServers()))
		p.obs("chord.churn_ms", ms(dc))
		p.obs("ktree.repair_ms", ms(dr))
		p.obs("ktree.repair_changes", float64(changes))
		p.obs("ktree.repair_allocs", float64(m.Allocs))
		p.obs("recover_ms_p50", ms(dc+dr))
		p.mix(uint64(changes))
	}
}

func (p *pass) nodes(full int) int {
	n := full / p.scale
	if n < 8 {
		n = 8
	}
	return n
}

// roundOutcome reports one round's simulated result: the phase times
// under the executor's layer (core for the closed form, protocol for the
// message-level run) and the balancing outcome under core, whose
// classification and pairing rules both executors share.
func (p *pass) roundOutcome(layer string, res *core.Result, fx *fixture) {
	nodes := float64(len(fx.ring.AliveNodes()))
	p.obs(layer+".lbi_ticks", float64(res.TimeLBIDisseminate))
	p.obs(layer+".vsa_ticks", float64(res.TimeVSAComplete))
	p.obs(layer+".vst_ticks", float64(res.TimeVSTComplete))
	p.obs("core.transfers", float64(len(res.Assignments)))
	p.obs("core.moved_load_frac", res.MovedLoad/res.Global.L)
	p.obs("core.heavy_before_frac", float64(res.HeavyBefore)/nodes)
	p.obs("core.heavy_after_frac", float64(res.HeavyAfter)/nodes)
	p.obs("core.unassigned_offers", float64(res.UnassignedOffers))
	for _, t := range []sim.Time{res.TimeLBIAggregate, res.TimeLBIDisseminate, res.TimeVSAComplete, res.TimeVSTComplete} {
		p.mix(uint64(t))
	}
	p.mix(uint64(len(res.Assignments)))
	p.mix(uint64(res.UnassignedOffers))
	p.mix(uint64(res.HeavyBefore))
	p.mix(uint64(res.HeavyAfter))
	p.mixF(res.MovedLoad)
	g := giniOf(fx.ring)
	p.obs("gini_after", g)
	p.mixF(g)
}

// runRoundOracle is round-oracle-128k: the closed-form balancing round
// at 25,600 nodes / 128k virtual servers. The chord bulk build, the
// ktree Build and Repair and core's LBI/VSA/VST do all the work; no
// event is ever queued.
func runRoundOracle(p *pass) error {
	n := p.nodes(25600)
	reps := p.repsFor(1.6, 3)
	var roundNS int64
	var last *fixture
	for i := 0; i < reps; i++ {
		rep := p.tr.begin(fmt.Sprintf("rep[%d]", i), "bench", 0)
		fx, err := p.buildFixture(p.seed+int64(i), n, true)
		if err != nil {
			return err
		}
		p.obs("setup_s", fx.setup.Seconds())
		bal, err := core.NewBalancer(fx.ring, fx.tree, core.Config{Epsilon: epsilon})
		if err != nil {
			return err
		}
		base, msg0 := fx.ring.SnapshotConservation(), fx.eng.TotalMessages()
		var res *core.Result
		d, m := p.timed("core.RunRound", "core", fx.eng, func() { res, err = bal.RunRound() })
		p.attempted++
		if p.check("oracle round", err) {
			p.check("conservation across round", fx.ring.CheckConservation(base))
			p.roundOutcome("core", res, fx)
		}
		roundNS += int64(d)
		p.obs("round_ms_p50", ms(d))
		p.obs("core.round_allocs", float64(m.Allocs))
		p.obs("core.round_alloc_mb", m.mb())
		p.obs("sim.msgs_per_round", float64(fx.eng.TotalMessages()-msg0))
		p.mix(uint64(fx.eng.TotalMessages() - msg0))
		p.churn(fx, 1)
		p.tr.end(rep, 0, 0)
		last = fx
	}
	p.set("ops_per_s", float64(reps)/(float64(roundNS)/1e9), reps)
	p.set("live_heap_mb", liveHeapMB(last), 1)
	return nil
}

// msgRound runs one message-level round to completion on the fixture's
// engine and returns its result; every message is an engine event.
func msgRound(fx *fixture, runner *protocol.Runner) (*protocol.Result, error) {
	var res *protocol.Result
	var rerr error
	finished := false
	err := runner.StartRound(func(r *protocol.Result, e error) { res, rerr, finished = r, e, true })
	if err != nil {
		return nil, err
	}
	fx.eng.Run()
	if !finished {
		return nil, fmt.Errorf("engine drained before the round completed")
	}
	return res, rerr
}

// runRoundMsg is round-msg-32k (drop = 0) and round-msg-lossy-32k
// (drop = 0.10): one protocol.Runner round per repetition on a fresh
// 6,400-node fixture. The sim timer wheel, the protocol's reliable
// exchange and the lbnode collectors dominate; chord and ktree are
// set-up only. Under loss the same layers run their other half:
// retransmission timers, dedup, epoch expiry and handoff aborts.
func runRoundMsg(p *pass, drop float64) error {
	n := p.nodes(6400)
	reps := p.repsFor(2, 3)
	var roundNS int64
	var events, msgs, dropped, retries uint64
	var last *fixture
	var lastRes *protocol.Result
	for i := 0; i < reps; i++ {
		rep := p.tr.begin(fmt.Sprintf("rep[%d]", i), "bench", 0)
		seed := p.seed + int64(i)
		fx, err := p.buildFixture(seed, n, true)
		if err != nil {
			return err
		}
		p.obs("setup_s", fx.setup.Seconds())
		var inj *faults.Injector
		if drop > 0 {
			if inj, err = faults.New(seed, faults.Plan{Drop: drop}); err != nil {
				return err
			}
			if err := inj.Attach(fx.ring); err != nil {
				return err
			}
		}
		runner, err := protocol.NewRunner(fx.ring, fx.tree, protocol.Config{
			Core:         core.Config{Epsilon: epsilon},
			ChildTimeout: 500,
		})
		if err != nil {
			return err
		}
		base := fx.ring.SnapshotConservation()
		ev0, msg0 := fx.eng.Executed(), fx.eng.TotalMessages()
		var res *protocol.Result
		d, m := p.timed("protocol.round", "protocol", fx.eng, func() { res, err = msgRound(fx, runner) })
		p.attempted++
		if p.check("message-level round", err) {
			p.check("conservation across round", fx.ring.CheckConservation(base))
			p.roundOutcome("protocol", &res.Result, fx)
			p.obs("protocol.retries_per_round", float64(res.Retries))
			p.obs("protocol.timed_out_children", float64(res.TimedOutChildren))
			p.obs("protocol.aborted_transfers", float64(res.AbortedTransfers))
			p.mix(uint64(res.Retries))
			p.mix(uint64(res.TimedOutChildren))
			p.mix(uint64(res.AbortedTransfers))
			retries += uint64(res.Retries)
			if drop == 0 && res.Retries+res.TimedOutChildren+res.AbortedTransfers != 0 {
				p.fail("lossless round retried, timed out or aborted: %+v", res)
			}
			lastRes = res
		}
		ev, mg := fx.eng.Executed()-ev0, uint64(fx.eng.TotalMessages()-msg0)
		events += ev
		msgs += mg
		dropped += uint64(fx.eng.DroppedTotal())
		roundNS += int64(d)
		p.obs("round_ms_p50", ms(d))
		p.obs("protocol.round_allocs", float64(m.Allocs))
		p.obs("protocol.round_alloc_mb", m.mb())
		p.obs("sim.events_per_round", float64(ev))
		p.obs("sim.msgs_per_round", float64(mg))
		p.obs("sim.dropped_per_round", float64(fx.eng.DroppedTotal()))
		p.mix(ev)
		p.mix(mg)
		p.mix(uint64(fx.eng.DroppedTotal()))
		if inj != nil {
			inj.Detach()
		}
		p.churn(fx, 3)
		p.tr.end(rep, 0, 0)
		last = fx
	}
	p.set("ops_per_s", float64(reps)/(float64(roundNS)/1e9), reps)
	p.set("sim.ns_per_event", float64(roundNS)/float64(events), int(events))
	p.set("protocol.retries_per_delivered", float64(retries)/float64(msgs), int(msgs))
	if drop > 0 {
		// Generator check: the injector must drop the share it was
		// asked to, within four standard errors or 0.005.
		frac := float64(dropped) / float64(dropped+msgs)
		p.set("faults.dropped_frac", frac, int(dropped+msgs))
		p.check("fault generator", withinShare("dropped", frac, drop, dropped+msgs))
	}
	p.set("live_heap_mb", liveHeapMB(last), 1)
	if p.traced() && lastRes != nil {
		p.probeQueue(events / uint64(reps))
		p.probeLBNode(last, len(lastRes.Assignments))
	}
	return nil
}

// withinShare checks a generator's realized share against the share it
// was configured with, over n draws.
func withinShare(what string, got, want float64, n uint64) error {
	tol := math.Max(0.005, 4*math.Sqrt(want*(1-want)/float64(n)))
	if math.Abs(got-want) > tol {
		return fmt.Errorf("%s share %.4f outside %.2f ± %.4f over %d draws", what, got, want, tol, n)
	}
	return nil
}
