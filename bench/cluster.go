package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"p2plb/internal/cluster"
	"p2plb/internal/metrics"
	"p2plb/internal/stats"
	"p2plb/internal/wire"
)

const (
	clusterProcs = 4
	// Twenty virtual servers a rank and a per-round load drift of
	// sigma 0.05: with the deployment default of five and the sigma 0.3
	// the daemon tests use, the drift's random walk over hundreds of
	// rounds leaves nearly all load in one virtual server, and the Gini
	// then measures the seed's luck (0.32 to 0.54 over ten seeds).
	clusterVSPerNode = 20
	clusterDrift     = 0.05
	clusterWarmup    = 20
	clusterRestart   = 3 // a leaf rank: see README.md, "Prototype findings"
	roundSettleWait  = 10 * time.Second
	callTimeout      = 2 * time.Second
)

// fleet is four in-process daemons over loopback TCP, each with its own
// WAL in dir, plus the one closed-loop client that drives them.
type fleet struct {
	p       *pass
	spec    *cluster.Spec
	dir     string
	ds      []*cluster.Daemon
	round   uint64
	callsMS []float64
	last    []cluster.Status
	torn    int // settled polls whose statuses did not add up, polled again
	// retired sums the registries of daemons closed so far, so the
	// counters survive a restart.
	retired metrics.Snapshot
}

func (p *pass) startFleet(i int) (*fleet, error) {
	addrs, err := cluster.ReserveAddrs(clusterProcs)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(p.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{p: p, dir: dir, spec: &cluster.Spec{
		ClusterID:  fmt.Sprintf("bench-%d-%d", p.seed, i),
		Seed:       p.seed + int64(i),
		Procs:      clusterProcs,
		VSPerNode:  clusterVSPerNode,
		Addrs:      addrs,
		DriftSigma: clusterDrift,
		// The deployment default, shortened only for the smoke test.
		EpochTimeout: 1500 * time.Millisecond / time.Duration(min(p.scale, 10)),
	}}
	for r := 0; r < clusterProcs; r++ {
		d, err := cluster.NewDaemon(cluster.DaemonConfig{Spec: f.spec, Rank: r, DataDir: dir})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.ds = append(f.ds, d)
	}
	return f, nil
}

// stop closes every daemon (Close waits for its transport's goroutines)
// and removes the WAL directory.
func (f *fleet) stop() {
	for _, d := range f.ds {
		if d != nil {
			d.Close()
		}
	}
	os.RemoveAll(f.dir)
}

func (f *fleet) statuses() ([]cluster.Status, error) {
	sts := make([]cluster.Status, f.spec.Procs)
	for r := range sts {
		start := time.Now()
		raw, err := wire.Call(f.spec.Addrs[r], f.spec.ClusterID, "status", nil, callTimeout)
		if err != nil {
			return nil, fmt.Errorf("status rank %d: %w", r, err)
		}
		f.callsMS = append(f.callsMS, ms(time.Since(start)))
		if err := json.Unmarshal(raw, &sts[r]); err != nil {
			return nil, err
		}
	}
	return sts, nil
}

// runRound triggers the next round at the root and polls until every
// rank reports it done with no open escrow and no live handoff, twice
// in a row (one clean poll can race an assign still in flight), and the
// statuses conserve load and virtual servers. It returns the host time
// from trigger to that poll.
func (f *fleet) runRound() (time.Duration, error) {
	f.round++
	start := time.Now()
	body := map[string]uint64{"round": f.round}
	if _, err := wire.Call(f.spec.Addrs[0], f.spec.ClusterID, "round", body, callTimeout); err != nil {
		return 0, fmt.Errorf("trigger round %d: %w", f.round, err)
	}
	clean := 0
	var torn error
	for time.Since(start) < roundSettleWait {
		sts, err := f.statuses()
		if err != nil {
			return 0, err
		}
		settled := true
		for _, st := range sts {
			if st.Done < f.round || st.Pending > 0 || st.Active > 0 {
				settled = false
			}
		}
		if !settled {
			clean = 0
		} else if clean++; clean >= 2 {
			// The ranks are asked one after another. A handoff that starts
			// late and completes between two of the calls shows its
			// virtual server in neither status: a torn snapshot, not a
			// loss. A loss stays lost, so the poll goes on and reports it
			// when the wait runs out.
			if torn = cluster.CheckConservation(f.spec, sts); torn == nil {
				f.last = sts
				return time.Since(start), nil
			}
			f.torn++
		}
		time.Sleep(200 * time.Microsecond)
	}
	if torn != nil {
		return 0, torn
	}
	return 0, fmt.Errorf("round %d not settled in %v", f.round, roundSettleWait)
}

// counters merges the live daemons' registries with the retired ones.
func (f *fleet) counters() map[string]int64 {
	merged := metrics.Snapshot{}
	merged.Merge(f.retired)
	for _, d := range f.ds {
		if reg := d.Registry(); reg != nil {
			merged.Merge(reg.Snapshot())
		}
	}
	return merged.Counters
}

// gini is the Gini coefficient of load/capacity over the ranks, from
// the statuses of the round that settled last.
func (f *fleet) gini() float64 {
	unit := make([]float64, len(f.last))
	for i, st := range f.last {
		unit[i] = st.Total / st.Capacity
	}
	return stats.Gini(unit)
}

func (f *fleet) walBytes() int64 {
	var total int64
	for r := 0; r < f.spec.Procs; r++ {
		if st, err := os.Stat(filepath.Join(f.dir, fmt.Sprintf("lbd-%d.wal", r))); err == nil {
			total += st.Size()
		}
	}
	return total
}

// runCluster is cluster-loopback-4: the only workload that touches wire
// framing and acks, WAL append and replay, and the deployed daemon. One
// closed-loop client brings up five fleets one after another, seed+i
// each, and runs warm-up and clean rounds on every one; on the last it
// then twice restarts a leaf rank on its WAL and runs the round that
// follows the restart.
//
// Five short clean phases, not one long one, because both things a long
// phase is for pull against a single fleet. The host's speed wanders
// over seconds (one seed reads 6.5 to 9.9 ms a round from one run to the
// next), so the rounds have to span as much of the run as it allows; but
// the load drift is a random walk, and past a few hundred rounds on one
// fleet the Gini reads the walk (0.05 or 0.16 by seed at 600).
func runCluster(p *pass) error {
	const fleets = 5
	cleanRounds := max(12*p.seconds/p.scale, 5)
	// A round that waits out an epoch timeout takes 1.5 s, not 6 ms; a
	// clean phase ends early rather than let a seed on which many do
	// stretch the run past its length.
	cleanBudget := time.Duration(p.seconds) * time.Second * 12 / 100
	warm, restarts := clusterWarmup, 2
	if p.scale > 1 {
		warm, restarts = 3, 1
	}

	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	timedOut := 0
	settle := func(name string) (time.Duration, bool) {
		id := p.tr.begin(fmt.Sprintf("%s[%d]", name, p.attempted), "cluster", 0)
		d, err := f.runRound()
		p.tr.end(id, 0, 0)
		p.attempted++
		if err != nil {
			timedOut++
			p.fail("%s %d: %v", name, f.round, err)
			return 0, false
		}
		p.timedNS += int64(d)
		return d, true
	}

	var (
		cleanMS, callsMS []float64
		cleanTime        time.Duration
		walBytes         int64
		rounds           uint64
		torn             int
	)
	clean := map[string]int64{} // counters over the clean phases
	total := map[string]int64{} // counters over everything a fleet ran
	for i := 0; i < fleets; i++ {
		// Set-up: daemons up, warm-up rounds settled.
		id := p.tr.begin(fmt.Sprintf("setup[%d]", i), "bench", 0)
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var err error
		if f, err = p.startFleet(i); err != nil {
			return err
		}
		for r := 0; r < warm; r++ {
			if _, err := f.runRound(); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		p.obs("setup_s", time.Since(start).Seconds())
		p.tr.end(id, 0, 0)

		c0, wal0 := f.counters(), f.walBytes()
		f.callsMS = nil
		start = time.Now()
		for r := 0; r < cleanRounds && time.Since(start) < cleanBudget; r++ {
			if d, ok := settle("cluster.round"); ok {
				cleanMS = append(cleanMS, ms(d))
				p.obs("round_ms_p50", ms(d))
				p.obs("gini_after", f.gini())
			}
		}
		cleanTime += time.Since(start)
		c1 := f.counters()
		for name, v := range c1 {
			clean[name] += v - c0[name]
		}
		walBytes += f.walBytes() - wal0
		callsMS = append(callsMS, f.callsMS...)
		if i < fleets-1 { // the last fleet goes on to the restarts
			for name, v := range c1 {
				total[name] += v
			}
			rounds += f.round
			torn += f.torn
		}
	}
	n := len(cleanMS)
	if n == 0 {
		return fmt.Errorf("no clean round settled")
	}
	per := func(name string) float64 { return float64(clean[name]) / float64(n) }
	p.set("ops_per_s", float64(n)/cleanTime.Seconds(), n)
	p.set("cluster.clean_round_ms_p95", percentile(cleanMS, 95), n)
	p.set("cluster.wal_bytes_per_round", float64(walBytes)/float64(n), n)
	p.set("cluster.handoffs_per_round", per("cluster.handoffs"), n)
	p.set("wire.sent_per_round", per("wire.sent"), n)
	p.set("wire.retries_per_round", per("wire.retries"), n)
	p.set("wire.dups_per_round", per("wire.dups"), n)
	p.set("wire.call_ms_p50", median(callsMS), len(callsMS))

	// Restart a leaf rank on its own WAL (Close is indistinguishable
	// from SIGKILL as far as recovery goes) and time the round that
	// follows: what the fleet pays to absorb the disturbance.
	for i := 0; i < restarts; i++ {
		if reg := f.ds[clusterRestart].Registry(); reg != nil {
			f.retired.Merge(reg.Snapshot())
		}
		f.ds[clusterRestart].Close()
		f.ds[clusterRestart] = nil
		var err error
		d, _ := p.timed("cluster.restart", "cluster", nil, func() {
			f.ds[clusterRestart], err = cluster.NewDaemon(cluster.DaemonConfig{
				Spec: f.spec, Rank: clusterRestart, DataDir: f.dir})
		})
		if err != nil {
			return fmt.Errorf("restart rank %d: %w", clusterRestart, err)
		}
		p.obs("cluster.restart_ms", ms(d))
		if d, ok := settle("cluster.post_restart_round"); ok {
			p.obs("recover_ms_p50", ms(d))
		}
	}

	for name, v := range f.counters() {
		total[name] += v
	}
	rounds += f.round
	torn += f.torn
	p.set("cluster.applies", float64(total["cluster.applies"]), int(rounds))
	p.set("cluster.aborts", float64(total["cluster.aborts"]), int(rounds))
	p.set("wire.failed", float64(total["wire.failed"]), int(rounds))
	p.set("cluster.rounds_timed_out", float64(timedOut), int(rounds))
	open := 0
	for _, st := range f.last {
		open += st.Pending
	}
	p.set("cluster.escrows_open", float64(open), len(f.last))
	if torn > 0 {
		p.notes = append(p.notes, fmt.Sprintf("torn_snapshots=%d (settled polls polled again before they conserved)", torn))
	}
	p.set("live_heap_mb", liveHeapMB(f), 1)

	// Nothing about a real-time TCP run repeats bit for bit; the digest
	// covers what is derived from the seeds alone.
	for i := 0; i < fleets; i++ {
		for _, inv := range cluster.DeriveInventories(p.seed+int64(i), clusterProcs, clusterVSPerNode) {
			p.mixF(inv.Capacity)
			for _, vs := range inv.VSs {
				p.mix(uint64(vs.ID))
				p.mixF(vs.Load)
			}
		}
	}
	return nil
}
