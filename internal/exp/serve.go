package exp

import (
	"fmt"

	"p2plb/internal/core"
	"p2plb/internal/metrics"
	"p2plb/internal/par"
	"p2plb/internal/protocol"
	"p2plb/internal/serve"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// ServeSetup parameterizes the tail-latency serving experiment: one
// request plan replayed against the same ring under three variants
// (balancer off, balancer on, balancer on without the lookup cache),
// measuring whether KT-tree balancing actually flattens the service
// tail — the end-to-end claim the paper never tested.
type ServeSetup struct {
	Seed      int64
	Nodes     int
	VSPerNode int
	K         int
	// Requests and Objects size the plan; Utilization calibrates the
	// open-loop arrival rate as a fraction of the ring's ideal request
	// throughput (the sum over nodes of 1/serviceTicks — what perfect
	// load placement could absorb). Above the weakest peers' fair-share
	// capacity, balancer-off queues grow without bound while
	// balancer-on moves the traffic off them: that contrast is the
	// experiment.
	Requests    int
	Objects     int
	Utilization float64
	Work        float64
	PutFraction float64
	// RoundInterval is the virtual time between balancing rounds in the
	// balancer-on variants.
	RoundInterval sim.Time
	// Warmup excludes the arrivals before this virtual time from the
	// latency summaries in every variant (see serve.Config.Warmup): the
	// initial transient — before the first promotion pass and the first
	// few balancing rounds can possibly have reacted — queues on the
	// same initial placement in all three variants and would otherwise
	// drown the steady-state contrast the sweep exists to measure.
	Warmup sim.Time
	// Metrics, when set, is attached to the balancer-on variant's
	// engine.
	Metrics *metrics.Registry
}

// DefaultServeSetup is the committed-benchmark configuration: the
// paper-scale 4096-node Gnutella-capacity ring serving one million
// Zipf-popularity requests at a quarter of the ring's ideal throughput
// — still far beyond what the dial-up peers can absorb unaided.
// Utilization and RoundInterval are set so the arrival window spans
// dozens of balancing rounds (window ≈ Requests/(U·ideal) ticks): the
// balancer can only help requests that arrive after it has observed and
// moved the hot virtual servers, so a window of very few rounds would
// measure queueing noise, not balancing.
func DefaultServeSetup(seed int64) ServeSetup {
	return ServeSetup{
		Seed:          seed,
		Nodes:         4096,
		VSPerNode:     5,
		K:             2,
		Requests:      1_000_000,
		Objects:       100_000,
		Utilization:   0.25,
		Work:          1000,
		PutFraction:   0.1,
		RoundInterval: 500,
		Warmup:        4000,
	}
}

func (s *ServeSetup) fill() {
	d := DefaultServeSetup(s.Seed)
	if s.Nodes == 0 {
		s.Nodes = d.Nodes
	}
	if s.VSPerNode == 0 {
		s.VSPerNode = d.VSPerNode
	}
	if s.K == 0 {
		s.K = d.K
	}
	if s.Requests == 0 {
		s.Requests = d.Requests
	}
	if s.Objects == 0 {
		s.Objects = d.Objects
	}
	if s.Utilization == 0 {
		s.Utilization = d.Utilization
	}
	if s.Work == 0 {
		s.Work = d.Work
	}
	if s.PutFraction == 0 {
		s.PutFraction = d.PutFraction
	}
	if s.RoundInterval == 0 {
		s.RoundInterval = d.RoundInterval
	}
	if s.Warmup == 0 {
		s.Warmup = d.Warmup
	}
}

// ServeRow is one variant's outcome.
type ServeRow struct {
	Variant  string  `json:"variant"`
	Balancer bool    `json:"balancer"`
	Cache    bool    `json:"cache"`
	Nodes    int     `json:"nodes"`
	Rate     float64 `json:"rate"` // calibrated arrivals per tick
	*serve.Report
}

type serveVariant struct {
	name       string
	bal, cache bool
}

// ServeSweep runs the three serving variants on identically built rings
// (same seed, same plan) in parallel and returns their rows in variant
// order: balancer-off, balancer-on, balancer-on-nocache. The first two
// pin the tail-latency claim, the third pins the cache's hop savings.
func ServeSweep(s ServeSetup) ([]ServeRow, error) {
	s.fill()
	if s.Utilization < 0 {
		return nil, fmt.Errorf("exp: negative utilization %v", s.Utilization)
	}
	variants := []serveVariant{
		{"balancer-off", false, true},
		{"balancer-on", true, true},
		{"balancer-on-nocache", true, false},
	}
	return par.MapErr(variants, 0, func(v serveVariant) (ServeRow, error) {
		return serveRow(s, v)
	})
}

func serveRow(s ServeSetup, v serveVariant) (ServeRow, error) {
	setup := DefaultSetup(s.Seed)
	setup.Nodes = s.Nodes
	setup.VSPerNode = s.VSPerNode
	setup.K = s.K
	if v.bal && v.cache && s.Metrics != nil {
		setup.Metrics = s.Metrics
	}
	inst, err := Build(setup)
	if err != nil {
		return ServeRow{}, err
	}
	// The serving layer owns the loads here: discard the sampled draws
	// (the primed object store re-credits the analytic expectation, and
	// observation takes over from there).
	for _, vs := range inst.Ring.VServers() {
		vs.Load = 0
	}

	// Ideal request throughput: what the ring absorbs if work spreads
	// perfectly across all capacity (service is fractional: one request
	// occupies its node for Work/Capacity ticks).
	var ideal float64
	for _, n := range inst.Ring.Nodes() {
		ideal += n.Capacity / s.Work
	}
	rate := s.Utilization * ideal

	cfg := serve.Config{
		Plan: workload.PlanSpec{
			Seed:        s.Seed,
			Requests:    s.Requests,
			Objects:     s.Objects,
			Rate:        rate,
			PutFraction: s.PutFraction,
			Origins:     s.Nodes,
		},
		Work:   s.Work,
		Warmup: s.Warmup,
	}
	if !v.cache {
		cfg.CacheSize = -1
	}
	srv, err := serve.New(inst.Engine, inst.Ring, cfg)
	if err != nil {
		return ServeRow{}, err
	}
	if v.bal {
		runner, err := protocol.NewRunner(inst.Ring, inst.Tree, protocol.Config{
			Core: core.Config{Epsilon: inst.Setup.Epsilon, Loads: srv},
		})
		if err != nil {
			return ServeRow{}, err
		}
		srv.UseBalancer(runner, s.RoundInterval)
	}
	rep, err := srv.Run()
	if err != nil {
		return ServeRow{}, fmt.Errorf("exp: serve variant %s: %w", v.name, err)
	}
	return ServeRow{
		Variant:  v.name,
		Balancer: v.bal,
		Cache:    v.cache,
		Nodes:    s.Nodes,
		Rate:     rate,
		Report:   rep,
	}, nil
}

// serveGateRequests is the plan size from which CheckServeRows asserts:
// below it (smoke runs) the tail is too noisy to gate on.
const serveGateRequests = 100_000

// CheckServeRows enforces the two claims the serving experiment exists
// to pin, across one ring size's three variants: interleaved balancing
// strictly improves the service tail (p99 and p999) over the
// balancer-off baseline on the same plan, and the hot-path lookup cache
// cuts mean overlay hops against the uncached variant.
func CheckServeRows(rows []ServeRow) error {
	byName := map[string]ServeRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	off, on, nocache := byName["balancer-off"], byName["balancer-on"], byName["balancer-on-nocache"]
	if off.Report == nil || on.Report == nil || nocache.Report == nil {
		return fmt.Errorf("exp: missing variant in serve sweep output")
	}
	if on.Requests < serveGateRequests {
		return nil
	}
	if on.Service.P99 >= off.Service.P99 {
		return fmt.Errorf("exp: balancer-on service p99 %.0f not below balancer-off %.0f", on.Service.P99, off.Service.P99)
	}
	if on.Service.P999 >= off.Service.P999 {
		return fmt.Errorf("exp: balancer-on service p999 %.0f not below balancer-off %.0f", on.Service.P999, off.Service.P999)
	}
	if on.MeanHops >= nocache.MeanHops {
		return fmt.Errorf("exp: cached mean hops %.3f not below uncached %.3f", on.MeanHops, nocache.MeanHops)
	}
	return nil
}
