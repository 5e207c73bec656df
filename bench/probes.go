package main

import (
	"time"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ident"
	"p2plb/internal/lbnode"
	"p2plb/internal/objects"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// Probes replay a workload's own inputs through one layer in isolation,
// from outside, so the traced run can say how much of an end-to-end
// number a layer could account for. They run after the timed sections,
// in traced passes only, each under a root probe.* span.

// probe times fn under a probe.* span. Probes exist only in the traced
// pass, so their time stays out of the total the trace overhead is
// computed from.
func (p *pass) probe(name, layer string, fn func()) time.Duration {
	d, _ := p.timed("probe."+name, layer, nil, fn)
	p.timedNS -= int64(d)
	return d
}

type noopEvent struct{}

func (noopEvent) RunEvent() {}

// probeQueue prices the engine's event queue alone: schedule and step
// as many no-op events as one round executed, in batches spread over
// the near wheel like protocol messages are.
func (p *pass) probeQueue(events uint64) {
	if events == 0 {
		return
	}
	eng := sim.NewEngine(1)
	ev := noopEvent{}
	const batch = 4096
	d := p.probe("sim.queue", "sim", func() {
		for done := uint64(0); done < events; done += batch {
			for i := 0; i < batch; i++ {
				eng.ScheduleEv(sim.Time(1+i%64), ev)
			}
			for eng.Step() {
			}
		}
	})
	n := (events + batch - 1) / batch * batch
	p.set("sim.queue_probe_ns", float64(d)/float64(n), int(n))
}

// probeLBNode prices the pure protocol machines: one LBI collector per
// KT node (make, K child replies, aggregate) and one two-phase handoff
// per transfer, with no delivery, timers or retries around them.
func (p *pass) probeLBNode(fx *fixture, transfers int) {
	nodes := fx.tree.NumNodes()
	local := []core.LBI{core.MakeLBI(100, 10, 1)}
	sub := core.MakeLBI(200, 20, 2)
	var sink float64
	d := p.probe("lbnode.lbi_collect", "lbnode", func() {
		for i := 0; i < nodes; i++ {
			c := lbnode.MakeLBICollect(local, treeK)
			for k := 0; k < treeK; k++ {
				c.ChildReply(k, sub)
			}
			sink += c.Aggregate().L
		}
	})
	p.set("lbnode.lbi_collect_probe_ns", float64(d)/float64(nodes), nodes)

	if transfers == 0 {
		return
	}
	vs := fx.ring.VServers()[0]
	var to *chord.Node
	for _, n := range fx.ring.AliveNodes() {
		if n != vs.Owner {
			to = n
			break
		}
	}
	pair := core.Pair{VS: vs, From: vs.Owner, To: to, Load: vs.Load}
	done := 0
	d = p.probe("lbnode.handoff", "lbnode", func() {
		for i := 0; i < transfers; i++ {
			h := lbnode.NewHandoff(pair)
			h.AssignReceived()
			h.PrepareReceived()
			h.PrepareAcked()
			if h.TransferReceived() {
				done++
			}
		}
	})
	if done != transfers || sink == 0 {
		p.fail("lbnode probe: %d of %d handoffs completed", done, transfers)
	}
	p.set("lbnode.handoff_probe_ns", float64(d)/float64(transfers), transfers)
}

// probeServe replays the head of the request plan through the routing
// and storage layers alone, on a fresh ring identical to the served
// one: plain and cached lookups of the first pairs (origin, key), a
// drain of the plan generator, and a bulk insert of the object
// population.
func (p *pass) probeServe(cfg serveConfig, spec workload.PlanSpec) error {
	pairs := 100_000 / p.scale
	if pairs > spec.Requests {
		pairs = spec.Requests
	}
	// The probe ring's own build is not this pass's to report.
	scratch := newPass(p.seed, p.seconds, p.scale, p.outDir, nil)
	fx, err := scratch.buildFixture(p.seed, cfg.nodes, false)
	if err != nil {
		return err
	}
	keys := make([]ident.ID, spec.Objects)
	for i := range keys {
		keys[i] = ident.ID(fx.eng.Rand().Uint32())
	}
	plan, err := workload.NewRequestPlan(spec)
	if err != nil {
		return err
	}
	type pair struct {
		origin *chord.Node
		key    ident.ID
	}
	nodes := fx.ring.Nodes()
	reqs := make([]pair, 0, pairs)
	for len(reqs) < pairs {
		r, ok := plan.Next()
		if !ok {
			break
		}
		reqs = append(reqs, pair{nodes[r.Origin%len(nodes)], keys[r.Object]})
	}
	landed := 0
	sinkCB := func(chord.LookupResult) { landed++ }

	d := p.probe("chord.lookup", "chord", func() {
		for _, q := range reqs {
			fx.ring.Lookup(q.origin, q.key, sinkCB)
			fx.eng.Run()
		}
	})
	p.set("chord.lookup_probe_ns", float64(d)/float64(len(reqs)), len(reqs))

	// Each lookup runs to completion before the next is issued, in both
	// probes: the cache learns an owner only when a lookup lands.
	cache := chord.NewLookupCache(fx.ring, 0)
	d = p.probe("chord.cached_lookup", "chord", func() {
		for _, q := range reqs {
			fx.ring.CachedLookup(cache, q.origin, q.key, sinkCB)
			fx.eng.Run()
		}
	})
	p.set("chord.cached_lookup_probe_ns", float64(d)/float64(len(reqs)), len(reqs))
	if landed != 2*len(reqs) {
		p.fail("lookup probe: %d of %d lookups landed", landed, 2*len(reqs))
	}

	plan.Reset()
	drained := 0
	d = p.probe("workload.plan", "workload", func() {
		for {
			if _, ok := plan.Next(); !ok {
				break
			}
			drained++
		}
	})
	p.set("workload.plan_ns_per_req", float64(d)/float64(drained), drained)

	w := plan.ExpectedWeights()
	objs := make([]objects.Object, len(keys))
	for i, k := range keys {
		objs[i] = objects.Object{Key: k, Load: w[i]}
	}
	store := objects.NewStore(fx.ring)
	d = p.probe("objects.bulk_insert", "objects", func() { err = store.BulkInsert(objs) })
	p.check("bulk insert probe", err)
	p.set("objects.bulk_insert_probe_ms", ms(d), len(objs))
	return nil
}
