// Command lbsim regenerates the paper's figures and runs every
// experiment EXPERIMENTS.md reports.
//
// Usage:
//
//	lbsim -fig 4          # unit-load scatter before/after LB (Gaussian)
//	lbsim -fig 5          # load by capacity class, Gaussian
//	lbsim -fig 6          # load by capacity class, Pareto
//	lbsim -fig 7          # moved load vs distance, ts5k-large, aware vs ignorant
//	lbsim -fig 8          # moved load vs distance, ts5k-small
//	lbsim -fig vsatime    # phase completion times for K=2 and K=8
//	lbsim -fig cfs        # CFS-style shedding baseline (load thrashing)
//	lbsim -fig rao        # Rao et al. schemes vs the tree scheme
//	lbsim -fig churn      # robustness vs membership churn rate
//	lbsim -fig faults     # graceful degradation under message loss + partition recovery
//	lbsim -fig serve      # tail latency serving 1M Zipf requests, balancer on/off
//	lbsim -fig scale      # whole lifecycle at 64k / 256k / 1M virtual servers
//	lbsim -fig chaos      # 8 lbd processes over TCP, 8 rounds, 3 SIGKILLs
//	                      # (builds cmd/lbd: run it from inside the module)
//
// Common flags: -seed, -nodes, -graphs (figs 7/8), -eps, -csv FILE.
// -nodes defaults to the paper's 4096; faults defaults to 512 and scale
// to its three committed sizes, and both honour an explicit -nodes.
// Observability: -metrics FILE dumps a metrics snapshot (JSON, or CSV
// with a .csv suffix) of counters, histograms and series recorded
// during the run; -cpuprofile/-memprofile write pprof profiles.
// The program prints the same rows/series the paper plots; absolute
// numbers differ from the paper's testbed, the shapes should not.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"p2plb/internal/cluster"
	"p2plb/internal/core"
	"p2plb/internal/exp"
	"p2plb/internal/metrics"
	"p2plb/internal/stats"
	"p2plb/internal/topology"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 4, 5, 6, 7, 8, vsatime, cfs, rao, churn, faults, serve, scale, chaos")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		nodes      = flag.Int("nodes", 4096, "number of DHT nodes (faults: 512, scale: 12800, 51200 and 200000, unless given)")
		graphs     = flag.Int("graphs", 10, "topology instances for figs 7/8 (paper: 10)")
		eps        = flag.Float64("eps", 0.05, "target slack epsilon (0 is honoured: zero slack)")
		csvOut     = flag.String("csv", "", "also write raw series to this CSV file")
		metricsOut = flag.String("metrics", "", "write a metrics snapshot to this file (JSON, or CSV if it ends in .csv)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	nodesGiven := false
	flag.Visit(func(f *flag.Flag) { nodesGiven = nodesGiven || f.Name == "nodes" })
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
	}
	var snap metrics.Snapshot
	var err error
	if *fig == "chaos" {
		// The daemons are other processes: their merged /metrics scrape
		// is the snapshot, not this process's registry.
		snap, err = chaos(*seed)
	} else {
		err = run(*fig, *seed, *nodes, nodesGiven, *graphs, *eps, *csvOut, reg)
		snap = reg.Snapshot()
	}
	if err == nil && *metricsOut != "" {
		err = snap.WriteFile(*metricsOut)
	}
	if err == nil && *memProf != "" {
		err = writeHeapProfile(*memProf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// run dispatches one in-process figure. nodesGiven says -nodes was on
// the command line: the figures whose default size is not the paper's
// 4096 use their own default without it and the given value with it.
func run(fig string, seed int64, nodes int, nodesGiven bool, graphs int, eps float64, csvOut string, reg *metrics.Registry) error {
	switch fig {
	case "4":
		return fig4(seed, nodes, eps, csvOut, reg)
	case "5":
		return fig56(seed, nodes, eps, false, csvOut, reg)
	case "6":
		return fig56(seed, nodes, eps, true, csvOut, reg)
	case "7":
		return fig78(seed, nodes, graphs, "ts5k-large", topology.TS5kLarge, csvOut, reg)
	case "8":
		return fig78(seed, nodes, graphs, "ts5k-small", topology.TS5kSmall, csvOut, reg)
	case "vsatime":
		return vsatime(seed, nodes, reg)
	case "cfs":
		return cfs(seed, nodes, eps)
	case "rao":
		return raoComparison(seed, nodes, eps)
	case "churn":
		return churnSensitivity(seed, nodes)
	case "faults":
		if !nodesGiven {
			nodes = 512 // message-level rounds with retransmission; 51200 is the committed sweep
		}
		return faultTolerance(seed, nodes)
	case "serve":
		return figServe(seed, nodes, csvOut, reg)
	case "scale":
		sizes := exp.ScaleSizes
		if nodesGiven {
			sizes = []int{nodes}
		}
		return scale(seed, sizes)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// figServe runs the tail-latency serving experiment (EXPERIMENTS.md
// "Tail latency"): the same million-request Zipf plan replayed with the
// balancer off, on, and on-without-lookup-cache, showing whether
// balancing flattens the service tail and what the hot-path cache
// saves in lookup hops.
func figServe(seed int64, nodes int, csvOut string, reg *metrics.Registry) error {
	s := exp.DefaultServeSetup(seed)
	s.Nodes = nodes
	s.Metrics = reg
	rows, err := exp.ServeSweep(s)
	if err != nil {
		return err
	}
	fmt.Printf("Serving layer — tail latency under load balancing, N=%d, %d requests @ %.1f/tick (%.0f%% of ideal throughput)\n",
		nodes, s.Requests, rows[0].Rate, 100*s.Utilization)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  variant\thops\thit%\tlookup p50/p99\tservice p50\tservice p99\tservice p999\tservice max\trounds\ttransfers")
	for _, r := range rows {
		hitPct := 0.0
		if looked := r.CacheHits + r.CacheMisses; looked > 0 {
			hitPct = 100 * float64(r.CacheHits) / float64(looked)
		}
		fmt.Fprintf(w, "  %s\t%.2f\t%.1f\t%.0f/%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\n",
			r.Variant, r.MeanHops, hitPct,
			r.Lookup.P50, r.Lookup.P99,
			r.Service.P50, r.Service.P99, r.Service.P999, r.Service.Max,
			r.Rounds, r.Transfers)
	}
	w.Flush()
	if csvOut != "" {
		out := [][]string{{"variant", "mean_hops", "cache_hits", "cache_misses",
			"lookup_p50", "lookup_p99", "service_p50", "service_p99", "service_p999", "service_max",
			"rounds", "transfers"}}
		for _, r := range rows {
			out = append(out, []string{
				r.Variant, fmtF(r.MeanHops),
				strconv.FormatInt(r.CacheHits, 10), strconv.FormatInt(r.CacheMisses, 10),
				fmtF(r.Lookup.P50), fmtF(r.Lookup.P99),
				fmtF(r.Service.P50), fmtF(r.Service.P99), fmtF(r.Service.P999), fmtF(r.Service.Max),
				strconv.Itoa(r.Rounds), strconv.Itoa(r.Transfers),
			})
		}
		if err := writeCSV(csvOut, out); err != nil {
			return err
		}
	}
	// The acceptance gate of the experiment: a run whose balancer does
	// not beat the baseline tail fails, after its table is printed.
	return exp.CheckServeRows(rows)
}

// scale runs the whole-lifecycle scaling experiment (EXPERIMENTS.md
// "Scaling") at each node count and prints per-phase wall times beside
// the seed-determined tree shape and round outcome.
func scale(seed int64, sizes []int) error {
	epoch := time.Now()
	rows, err := exp.ScaleSweep(seed, sizes, func() int64 { return int64(time.Since(epoch)) })
	if err != nil {
		return err
	}
	fmt.Println("Scaling — ring build, loads, KT build, one round, 1% churn + Repair; 5 VSs per node")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  nodes\tVSs\tring ms\tloads ms\ttree ms\tKT nodes\theight\tround ms\theavy before\theavy after\tchurn ms\trepair ms\trepair changes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Nodes, r.VServers, r.BuildMS, r.LoadMS, r.TreeMS, r.TreeNodes, r.TreeHeight,
			r.RoundMS, r.HeavyBefore, r.HeavyAfter, r.ChurnMS, r.RepairMS, r.RepairChanges)
	}
	return w.Flush()
}

// The committed crash-tolerance run (EXPERIMENTS.md "Crash tolerance").
const (
	chaosProcs  = 8
	chaosRounds = 8
	chaosKills  = 3
)

// chaos drives the multi-process chaos harness: lbd daemons (built from
// this module into a temp dir) over real TCP, SIGKILLs mid-round,
// supervisor restarts, conservation audited after every settled round.
// The returned snapshot is the union of every daemon's /metrics
// endpoint (kills, restarts, wire retries, WAL replays), scraped just
// before teardown.
func chaos(seed int64) (metrics.Snapshot, error) {
	dir, err := os.MkdirTemp("", "lbsim-chaos")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "lbd")
	if out, err := exec.Command("go", "build", "-o", bin, "p2plb/cmd/lbd").CombinedOutput(); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("building lbd: %v\n%s", err, out)
	}
	rep, err := cluster.RunChaos(cluster.ChaosConfig{
		Bin:     bin,
		DataDir: filepath.Join(dir, "data"),
		Seed:    seed,
		Procs:   chaosProcs,
		Rounds:  chaosRounds,
		Kills:   chaosKills,
	})
	if err != nil {
		return metrics.Snapshot{}, err
	}
	fmt.Printf("Crash tolerance — %d lbd processes over loopback TCP, %d rounds, %d SIGKILLs\n",
		rep.Procs, len(rep.Rounds), rep.Kills)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  round\tkills\tsettle ms\tgini")
	for _, r := range rep.Rounds {
		fmt.Fprintf(w, "  %d\t%d\t%d\t%.4f\n", r.Round, r.Kills, r.SettleMS, r.Gini)
	}
	w.Flush()
	fmt.Printf("  gini %.4f -> %.4f (kill-free baseline %.4f); %d restarts, %d re-issued rounds\n",
		rep.InitialGini, rep.FinalGini, rep.BaselineGini, rep.Restarts, rep.Reissues)
	fmt.Println("  (load and virtual servers conserved after every settled round)")
	return *rep.Metrics, nil
}

func setupWith(seed int64, nodes int, eps float64) exp.Setup {
	s := exp.DefaultSetup(seed)
	s.Nodes = nodes
	s.Epsilon = eps
	return s
}

func fig4(seed int64, nodes int, eps float64, csvOut string, reg *metrics.Registry) error {
	s := setupWith(seed, nodes, eps)
	s.Metrics = reg
	ba, err := exp.Fig4(s)
	if err != nil {
		return err
	}
	before, after, res := ba.UnitBefore, ba.UnitAfter, ba.Result

	fmt.Printf("Figure 4 — unit load (load/capacity) per node, Gaussian, N=%d, eps=%.2f\n", nodes, eps)
	fmt.Printf("  heavy before: %d (%.0f%%)   heavy after: %d\n",
		res.HeavyBefore, 100*float64(res.HeavyBefore)/float64(nodes), res.HeavyAfter)
	fmt.Printf("  light before: %d  neutral before: %d\n", res.LightBefore, res.NeutralBefore)
	fmt.Printf("  moved load: %.0f (%.1f%% of total) in %d transfers, %d offers unassigned\n",
		res.MovedLoad, 100*res.MovedLoad/res.Global.L, len(res.Assignments), res.UnassignedOffers)
	// Sort copies once; before/after keep node order for the CSV rows.
	sortedB := append([]float64(nil), before...)
	sortedA := append([]float64(nil), after...)
	sort.Float64s(sortedB)
	sort.Float64s(sortedA)
	sb, sa := stats.SummarizeSorted(sortedB), stats.SummarizeSorted(sortedA)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  unit load\tmean\tstd\tp50\tp99\tmax")
	fmt.Fprintf(w, "  before\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
		sb.Mean, sb.Std, sb.Median, stats.PercentileSorted(sortedB, 99), sb.Max)
	fmt.Fprintf(w, "  after\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
		sa.Mean, sa.Std, sa.Median, stats.PercentileSorted(sortedA, 99), sa.Max)
	w.Flush()
	if csvOut != "" {
		rows := [][]string{{"node", "unit_before", "unit_after"}}
		for i := range before {
			rows = append(rows, []string{
				strconv.Itoa(i + 1), fmtF(before[i]), fmtF(after[i]),
			})
		}
		return writeCSV(csvOut, rows)
	}
	return nil
}

func fig56(seed int64, nodes int, eps float64, pareto bool, csvOut string, reg *metrics.Registry) error {
	name, figNo := "Gaussian", "5"
	if pareto {
		name, figNo = "Pareto(alpha=1.5)", "6"
	}
	s := setupWith(seed, nodes, eps)
	s.Pareto = pareto
	s.Metrics = reg
	classes, res, err := exp.LoadByCapacity(s)
	if err != nil {
		return err
	}

	fmt.Printf("Figure %s — load by node capacity class, %s, N=%d\n", figNo, name, nodes)
	fmt.Printf("  heavy before: %d, after: %d; moved %.1f%% of total load\n",
		res.HeavyBefore, res.HeavyAfter, 100*res.MovedLoad/res.Global.L)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  capacity\tnodes\tmean load before\tmean load after\tunit before\tunit after")
	rows := [][]string{{"capacity", "nodes", "mean_before", "mean_after", "unit_before", "unit_after"}}
	for _, c := range classes {
		fmt.Fprintf(w, "  %.0f\t%d\t%.1f\t%.1f\t%.2f\t%.2f\n",
			c.Capacity, c.Nodes, c.MeanBefore, c.MeanAfter, c.UnitBefore, c.UnitAfter)
		rows = append(rows, []string{
			fmtF(c.Capacity), strconv.Itoa(c.Nodes),
			fmtF(c.MeanBefore), fmtF(c.MeanAfter),
			fmtF(c.UnitBefore), fmtF(c.UnitAfter),
		})
	}
	w.Flush()
	fmt.Println("  (after balancing, unit load should be nearly equal across classes:")
	fmt.Println("   higher-capacity nodes carry proportionally more load)")
	if csvOut != "" {
		return writeCSV(csvOut, rows)
	}
	return nil
}

func fig78(seed int64, nodes, graphs int, name string, topo func(int64) topology.Params, csvOut string, reg *metrics.Registry) error {
	fmt.Printf("Figure %s — moved load vs transfer distance, %s, N=%d, %d graphs\n",
		map[string]string{"ts5k-large": "7", "ts5k-small": "8"}[name], name, nodes, graphs)
	dist, err := exp.MovedLoadDistribution(topo, graphs, seed, nodes, reg)
	if err != nil {
		return err
	}
	if dist.HeavyResidualAware+dist.HeavyResidualIgnorant > 0 {
		fmt.Printf("  WARNING: residual heavy nodes (aware %d, ignorant %d)\n",
			dist.HeavyResidualAware, dist.HeavyResidualIgnorant)
	}
	maxB := dist.Aware.MaxBucket()
	if b := dist.Ignorant.MaxBucket(); b > maxB {
		maxB = b
	}
	pdfA, cdfA := dist.Aware.PDF(), dist.Aware.CDF()
	pdfI, cdfI := dist.Ignorant.PDF(), dist.Ignorant.CDF()
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		if len(s) == 0 {
			return 0
		}
		return s[len(s)-1]
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  distance\tPDF aware\tPDF ignorant\tCDF aware\tCDF ignorant")
	rows := [][]string{{"distance", "pdf_aware", "pdf_ignorant", "cdf_aware", "cdf_ignorant"}}
	for b := 0; b <= maxB; b++ {
		// Print only buckets that carry anything, plus the CDF milestones.
		if at(pdfA, b) < 0.001 && at(pdfI, b) < 0.001 && b%5 != 0 {
			continue
		}
		fmt.Fprintf(w, "  %d\t%.3f\t%.3f\t%.3f\t%.3f\n",
			b, at(pdfA, b), at(pdfI, b), minF(at(cdfA, b), 1), minF(at(cdfI, b), 1))
		rows = append(rows, []string{
			strconv.Itoa(b), fmtF(at(pdfA, b)), fmtF(at(pdfI, b)),
			fmtF(at(cdfA, b)), fmtF(at(cdfI, b)),
		})
	}
	w.Flush()
	ma, mi := dist.MeanHops()
	fmt.Printf("  aware:    %.0f%% of moved load within 2 units, %.0f%% within 10; mean %.1f\n",
		100*dist.Aware.FractionWithin(2), 100*dist.Aware.FractionWithin(10), ma)
	fmt.Printf("  ignorant: %.0f%% of moved load within 2 units, %.0f%% within 10; mean %.1f\n",
		100*dist.Ignorant.FractionWithin(2), 100*dist.Ignorant.FractionWithin(10), mi)
	if name == "ts5k-large" {
		fmt.Println("  (paper, ts5k-large: aware ~67% within 2 hops, ~86% within 10;")
		fmt.Println("   ignorant ~13% within 10)")
	} else {
		fmt.Println("  (paper, ts5k-small: nodes scattered across the Internet; aware")
		fmt.Println("   still clearly outperforms ignorant, with the gap attenuated)")
	}
	if csvOut != "" {
		return writeCSV(csvOut, rows)
	}
	return nil
}

func vsatime(seed int64, nodes int, reg *metrics.Registry) error {
	sizes := []int{nodes / 8, nodes / 4, nodes / 2, nodes}
	sort.Ints(sizes)
	rows, err := exp.VSATimes([]int{2, 8}, sizes, seed, reg)
	if err != nil {
		return err
	}
	fmt.Println("VSA completion time — O(log_K N) bound check")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  K\tnodes\tVSs\ttree height\tLBI up\tLBI down\tVSA done\tVST done")
	for _, r := range rows {
		fmt.Fprintf(w, "  %d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.K, r.Nodes, r.VServers, r.TreeHeight, r.LBIUp, r.LBIDown, r.VSADone, r.VSTDone)
	}
	return w.Flush()
}

func cfs(seed int64, nodes int, eps float64) error {
	s := setupWith(seed, nodes, eps)
	inst, err := exp.Build(s)
	if err != nil {
		return err
	}
	out, err := core.RunCFSShedding(inst.Ring, eps, 100)
	if err != nil {
		return err
	}
	fmt.Printf("CFS-style shedding baseline, N=%d, eps=%.2f\n", nodes, eps)
	fmt.Printf("  rounds: %d  shed VSs: %d  thrash events: %d  converged: %v  heavy at end: %d\n",
		out.Rounds, out.Shed, out.ThrashEvents, out.Converged, out.HeavyAtEnd)
	fmt.Println("  (thrash events = nodes made heavy by regions shed onto them;")
	fmt.Println("   the paper cites this failure mode as motivation, §1.1)")
	return nil
}

// raoComparison runs the three Rao et al. schemes and the paper's tree
// scheme on identical workloads over a ts5k-large underlay and compares
// convergence and transfer cost.
func raoComparison(seed int64, nodes int, eps float64) error {
	rows, err := exp.RaoComparison(setupWith(seed, nodes, eps), topology.TS5kLarge(seed))
	if err != nil {
		return err
	}
	fmt.Printf("Rao et al. schemes vs the tree scheme, ts5k-large, N=%d, eps=%.2f\n", nodes, eps)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  scheme\trounds\theavy start\theavy end\ttransfers\tmoved load\tmean distance")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\t%d\t%d\t%d\t%d\t%.0f\t%.1f\n",
			r.Scheme, r.Rounds, r.HeavyStart, r.HeavyEnd, r.Transfers, r.MovedLoad, r.MeanHops)
	}
	w.Flush()
	fmt.Println("  (Rao et al. schemes ignore proximity: their mean transfer distance")
	fmt.Println("   matches the tree's ignorant mode; only the aware tree cuts it)")
	return nil
}

// churnSensitivity reports balancing behaviour as membership churn
// grows — the robustness exploration the paper defers to future work.
func churnSensitivity(seed int64, nodes int) error {
	if nodes > 1024 {
		nodes = 1024 // message-level rounds; keep the sweep tractable
	}
	rates := []int{0, nodes / 64, nodes / 16, nodes / 8}
	fmt.Printf("Robustness vs churn — %d message-level rounds each, N=%d\n", 10, nodes)
	rows, err := exp.ChurnSensitivity(seed, nodes, rates, 10)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  churn/round\trounds\tfailed\ttimed-out epochs\taborted VSTs\theavy before\theavy after\tmoved/round")
	for _, r := range rows {
		fmt.Fprintf(w, "  %d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.0f\n",
			r.Churn, r.Rounds, r.Failed, r.TimedOutChildren, r.AbortedTransfers,
			r.MeanHeavyBefore, r.MeanHeavyAfter, r.MovedPerRound)
	}
	w.Flush()
	fmt.Println("  (steady-state means, first round excluded; churn replaces that many")
	fmt.Println("   random nodes before every round)")
	return nil
}

// faultTolerance reports graceful degradation under uniform message
// loss, then partition recovery — the fault-injection experiment.
func faultTolerance(seed int64, nodes int) error {
	const rounds = 6
	fmt.Printf("Fault tolerance — %d message-level rounds per drop rate, N=%d\n", rounds, nodes)
	rows, err := exp.FaultSweep(seed, nodes, exp.FaultRates, rounds)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  drop\trounds\tcompleted\tfailed\tretries\ttimed-out epochs\taborted VSTs\tdropped msgs\tmean round time\tfinal gini")
	for _, r := range rows {
		fmt.Fprintf(w, "  %.0f%%\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.4f\n",
			100*r.DropRate, r.Rounds, r.Completed, r.Failed, r.Retries,
			r.TimedOutChildren, r.AbortedTransfers, r.Dropped, r.MeanRoundTime, r.FinalGini)
	}
	w.Flush()
	fmt.Println("  (acks + bounded retries keep imbalance near fault-free levels;")
	fmt.Println("   round time grows with the retransmission work)")

	p, err := exp.PartitionRecovery(seed, nodes, 2, 6)
	if err != nil {
		return err
	}
	fmt.Printf("Partition recovery — half the ring cut before balancing, N=%d\n", p.Nodes)
	fmt.Printf("  baseline gini %.4f; after %d partitioned rounds (%d failed): gini %.4f\n",
		p.BaselineGini, p.PartitionRounds, p.FailedDuring, p.GiniAtHeal)
	if p.RoundsToRecover < 0 {
		fmt.Println("  did NOT recover within the round budget after healing")
	} else {
		fmt.Printf("  healed: recovered to gini %.4f in %d round(s), %d time units (%d retries total)\n",
			p.RecoveredGini, p.RoundsToRecover, p.RecoveryTime, p.Retries)
	}
	return nil
}

func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
