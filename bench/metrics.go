package main

// The metric names in this file are the benchmark's contract: later
// changes are judged by them, so a name is never reused for a different
// quantity. BENCHMARK.json at the repository root repeats the names,
// units, directions and bounds; bench_test.go holds the two in step.

// clock says what a number costs or models. Host metrics are what the
// simulator and the daemons cost to run on this machine and move with
// the machine; sim metrics are what the modelled P2P system would
// experience and repeat exactly at a fixed seed.
type clock string

const (
	host clock = "host"
	simc clock = "sim"
)

// metricDef is one metric of the contract; the JSON form is its entry
// in BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	Clock  clock  `json:"-"`
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change is a regression. Per-layer metrics
	// carry no bound.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every workload reports from its untraced
// run. Each is defined on every workload (README.md has the table); a
// metric only some workloads could report lives in perLayer instead,
// because the driver compares every (workload, metric) pair.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", host, 0.25},
	{"round_ms_p50", "ms", "lower", host, 0.25},
	{"ops_per_s", "1/s", "higher", host, 0.25},
	{"recover_ms_p50", "ms", "lower", host, 0.25},
	{"gini_after", "ratio", "lower", simc, 0.25},
	{"live_heap_mb", "MB", "lower", host, 0.15},
}

// perLayer lists the attribution metrics of the traced run, named
// <layer>.<metric>. A workload that never enters a layer reports 0 for
// that layer's metrics, which is itself the statement "this layer does
// no work here".
var perLayer = []metricDef{
	{"chord.bulk_add_ms", "ms", "lower", host, 0},
	{"chord.bulk_add_allocs", "count", "lower", host, 0},
	{"chord.churn_ms", "ms", "lower", host, 0},
	{"chord.lookup_probe_ns", "ns", "lower", host, 0},
	{"chord.cached_lookup_probe_ns", "ns", "lower", host, 0},
	{"chord.mean_hops", "count", "lower", simc, 0},
	{"chord.cache_hit_frac", "ratio", "higher", simc, 0},
	{"chord.cache_stale_frac", "ratio", "lower", simc, 0},

	{"workload.load_assign_ms", "ms", "lower", host, 0},
	{"workload.plan_ns_per_req", "ns", "lower", host, 0},
	{"workload.put_frac", "ratio", "lower", simc, 0},

	{"ktree.build_ms", "ms", "lower", host, 0},
	{"ktree.build_allocs", "count", "lower", host, 0},
	{"ktree.build_alloc_mb", "MB", "lower", host, 0},
	{"ktree.nodes_per_vs", "ratio", "lower", simc, 0},
	{"ktree.height", "count", "lower", simc, 0},
	{"ktree.repair_ms", "ms", "lower", host, 0},
	{"ktree.repair_changes", "count", "lower", simc, 0},
	{"ktree.repair_allocs", "count", "lower", host, 0},

	{"core.round_allocs", "count", "lower", host, 0},
	{"core.round_alloc_mb", "MB", "lower", host, 0},
	{"core.lbi_ticks", "ticks", "lower", simc, 0},
	{"core.vsa_ticks", "ticks", "lower", simc, 0},
	{"core.vst_ticks", "ticks", "lower", simc, 0},
	{"core.transfers", "count", "lower", simc, 0},
	{"core.moved_load_frac", "ratio", "lower", simc, 0},
	{"core.heavy_before_frac", "ratio", "lower", simc, 0},
	{"core.heavy_after_frac", "ratio", "lower", simc, 0},
	{"core.unassigned_offers", "count", "lower", simc, 0},

	{"sim.events_per_round", "count", "lower", simc, 0},
	{"sim.events_per_req", "count", "lower", simc, 0},
	{"sim.ns_per_event", "ns", "lower", host, 0},
	{"sim.queue_probe_ns", "ns", "lower", host, 0},
	{"sim.msgs_per_round", "count", "lower", simc, 0},
	{"sim.dropped_per_round", "count", "lower", simc, 0},

	{"protocol.round_allocs", "count", "lower", host, 0},
	{"protocol.round_alloc_mb", "MB", "lower", host, 0},
	{"protocol.lbi_ticks", "ticks", "lower", simc, 0},
	{"protocol.vsa_ticks", "ticks", "lower", simc, 0},
	{"protocol.vst_ticks", "ticks", "lower", simc, 0},
	{"protocol.retries_per_round", "count", "lower", simc, 0},
	{"protocol.retries_per_delivered", "ratio", "lower", simc, 0},
	{"protocol.timed_out_children", "count", "lower", simc, 0},
	{"protocol.aborted_transfers", "count", "lower", simc, 0},
	{"protocol.rounds", "count", "higher", simc, 0},
	{"protocol.round_ticks_p50", "ticks", "lower", simc, 0},
	{"protocol.transfers", "count", "lower", simc, 0},
	{"protocol.moved_load", "load", "lower", simc, 0},

	{"faults.dropped_frac", "ratio", "lower", simc, 0},

	{"lbnode.lbi_collect_probe_ns", "ns", "lower", host, 0},
	{"lbnode.handoff_probe_ns", "ns", "lower", host, 0},

	{"objects.bulk_insert_probe_ms", "ms", "lower", host, 0},

	{"serve.new_ms", "ms", "lower", host, 0},
	{"serve.req_per_s", "1/s", "higher", host, 0},
	{"serve.lookup_p50_ticks", "ticks", "lower", simc, 0},
	{"serve.lookup_p99_ticks", "ticks", "lower", simc, 0},
	{"serve.service_p50_ticks", "ticks", "lower", simc, 0},
	{"serve.service_p99_ticks", "ticks", "lower", simc, 0},
	{"serve.service_p999_ticks", "ticks", "lower", simc, 0},
	{"serve.total_p50_ticks", "ticks", "lower", simc, 0},
	{"serve.total_p99_ticks", "ticks", "lower", simc, 0},
	{"serve.total_p999_ticks", "ticks", "lower", simc, 0},
	{"serve.drain_ticks", "ticks", "lower", simc, 0},
	{"serve.allocs_per_req", "count", "lower", host, 0},
	{"serve.alloc_bytes_per_req", "B", "lower", host, 0},
	{"serve.refresh_ms_total", "ms", "lower", host, 0},
	{"serve.measured", "count", "higher", simc, 0},
	{"serve.run_unattributed_frac", "ratio", "lower", host, 0},

	{"wire.call_ms_p50", "ms", "lower", host, 0},
	{"wire.sent_per_round", "count", "lower", host, 0},
	{"wire.retries_per_round", "count", "lower", host, 0},
	{"wire.dups_per_round", "count", "lower", host, 0},
	{"wire.failed", "count", "lower", host, 0},

	{"cluster.clean_round_ms_p95", "ms", "lower", host, 0},
	{"cluster.wal_bytes_per_round", "B", "lower", host, 0},
	{"cluster.handoffs_per_round", "count", "lower", host, 0},
	{"cluster.applies", "count", "lower", host, 0},
	{"cluster.aborts", "count", "lower", host, 0},
	{"cluster.escrows_open", "count", "lower", host, 0},
	{"cluster.restart_ms", "ms", "lower", host, 0},
	{"cluster.rounds_timed_out", "count", "lower", host, 0},

	{"host.calib_cpu_ms", "ms", "lower", host, 0},
	{"host.calib_mem_ms", "ms", "lower", host, 0},
	{"host.calib_drift_frac", "ratio", "lower", host, 0},
	{"trace_overhead_frac", "ratio", "lower", host, 0},
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

var (
	endToEndByName = defsByName(endToEnd)
	perLayerByName = defsByName(perLayer)
)
