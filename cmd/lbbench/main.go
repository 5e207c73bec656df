// Command lbbench runs the figure drivers as timed benchmarks and
// writes machine-readable result files, one per benchmark, named
// BENCH_<name>.json in the output directory.
//
// Usage:
//
//	lbbench                                  # fig4 and vsatime
//	lbbench -bench fig4,fig7,vsatime -out d  # add the fig 7 sweep
//	lbbench -bench serve                     # tail-latency serving sweep
//
// Each BENCH_<name>.json holds:
//
//	{
//	  "name":      "fig4",
//	  "unix_time": 1722816000,          // run timestamp (seconds)
//	  "config":    {"seed":1, "nodes":4096, "graphs":10, "epsilon":0.05},
//	  "wall_ms":   1234,                // end-to-end driver wall time
//	  "results":   {...},               // benchmark-specific outcome
//	  "metrics":   {...}                // metrics.Snapshot of the run
//	}
//
// The metrics object is the same snapshot `lbsim -metrics` emits:
// counters (msg.*, core.*), histograms (chord.lookup.*, core.phase.*)
// and series, so regressions in message counts or phase times are
// diffable across commits, not just wall time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"p2plb/internal/chord"
	"p2plb/internal/cluster"
	"p2plb/internal/core"
	"p2plb/internal/exp"
	"p2plb/internal/ktree"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

type benchConfig struct {
	Seed       int64     `json:"seed"`
	Nodes      int       `json:"nodes"`
	Graphs     int       `json:"graphs,omitempty"`
	Epsilon    float64   `json:"epsilon"`
	ScaleSizes []int     `json:"scale_sizes,omitempty"`
	DropRates  []float64 `json:"drop_rates,omitempty"`
	Procs      int       `json:"procs,omitempty"`
	Rounds     int       `json:"rounds,omitempty"`
	Kills      int       `json:"kills,omitempty"`
	ServeSizes []int     `json:"serve_sizes,omitempty"`
	ServeReqs  int       `json:"serve_requests,omitempty"`
}

type benchReport struct {
	Name     string            `json:"name"`
	UnixTime int64             `json:"unix_time"`
	Config   benchConfig       `json:"config"`
	WallMS   int64             `json:"wall_ms"`
	Results  interface{}       `json:"results"`
	Metrics  *metrics.Snapshot `json:"metrics"`
}

func main() {
	var (
		out        = flag.String("out", ".", "directory for BENCH_<name>.json files")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		nodes      = flag.Int("nodes", 4096, "number of DHT nodes")
		graphs     = flag.Int("graphs", 10, "topology instances for fig7")
		bench      = flag.String("bench", "fig4,vsatime", "comma-separated benchmarks: fig4, fig7, vsatime, scale, faults, cluster, serve")
		scalesizes = flag.String("scalesizes", "64000,256000,1000000", "comma-separated virtual-server counts for the scale benchmark")
		faultnodes = flag.Int("faultnodes", 51200, "number of DHT nodes for the faults benchmark (51200 nodes = 256k VSs)")
		procs      = flag.Int("procs", 8, "process count for the cluster benchmark")
		crounds    = flag.Int("clusterrounds", 8, "balancing rounds for the cluster benchmark")
		ckills     = flag.Int("clusterkills", 3, "SIGKILLs injected by the cluster benchmark")
		lbdBin     = flag.String("lbd", "", "path to the lbd binary for the cluster benchmark (default: go build it into a temp dir)")
		servesizes = flag.String("servesizes", "4096", "comma-separated DHT node counts for the serve benchmark")
		servereqs  = flag.Int("serverequests", 1000000, "requests per serve-benchmark variant")
	)
	flag.Parse()
	sizes, err := parseSizes(*scalesizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		os.Exit(1)
	}
	svSizes, err := parseSizes(*servesizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		os.Exit(1)
	}
	opts := benchOpts{
		out: *out, seed: *seed, nodes: *nodes, graphs: *graphs,
		scaleSizes: sizes,
		faultNodes: *faultnodes,
		procs:      *procs, clusterRounds: *crounds, clusterKills: *ckills,
		lbdBin:     *lbdBin,
		serveSizes: svSizes, serveRequests: *servereqs,
	}
	for _, name := range strings.Split(*bench, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := runBench(name, opts); err != nil {
			fmt.Fprintln(os.Stderr, "lbbench:", err)
			os.Exit(1)
		}
	}
}

// benchOpts carries the flag values into runBench.
type benchOpts struct {
	out           string
	seed          int64
	nodes         int
	graphs        int
	scaleSizes    []int
	faultNodes    int
	procs         int
	clusterRounds int
	clusterKills  int
	lbdBin        string
	serveSizes    []int
	serveRequests int
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad scale size %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func runBench(name string, o benchOpts) error {
	out, seed, nodes, graphs := o.out, o.seed, o.nodes, o.graphs
	reg := metrics.NewRegistry()
	cfg := benchConfig{Seed: seed, Nodes: nodes, Epsilon: 0.05}
	start := time.Now()
	var results interface{}
	var mergedSnap *metrics.Snapshot
	switch name {
	case "fig4":
		s := exp.DefaultSetup(seed)
		s.Nodes = nodes
		s.Metrics = reg
		inst, err := exp.Build(s)
		if err != nil {
			return err
		}
		res, err := inst.Balancer.RunRound()
		if err != nil {
			return err
		}
		results = map[string]interface{}{
			"heavy_before":      res.HeavyBefore,
			"heavy_after":       res.HeavyAfter,
			"light_before":      res.LightBefore,
			"moved_load":        res.MovedLoad,
			"moved_fraction":    res.MovedLoad / res.Global.L,
			"transfers":         len(res.Assignments),
			"unassigned_offers": res.UnassignedOffers,
			"tree_height":       res.TreeHeight,
		}
	case "fig7":
		cfg.Graphs = graphs
		dist, err := exp.MovedLoadDistribution(topology.TS5kLarge, graphs, seed, nodes, reg)
		if err != nil {
			return err
		}
		aware, ignorant := dist.MeanHops()
		results = map[string]interface{}{
			"graphs":                  dist.Graphs,
			"mean_hops_aware":         aware,
			"mean_hops_ignorant":      ignorant,
			"within2_aware":           dist.Aware.FractionWithin(2),
			"within2_ignorant":        dist.Ignorant.FractionWithin(2),
			"heavy_residual_aware":    dist.HeavyResidualAware,
			"heavy_residual_ignorant": dist.HeavyResidualIgnorant,
		}
	case "vsatime":
		sizes := []int{nodes / 8, nodes / 4, nodes / 2, nodes}
		rows, err := exp.VSATimes([]int{2, 8}, sizes, seed, reg)
		if err != nil {
			return err
		}
		results = rows
	case "scale":
		cfg.ScaleSizes = o.scaleSizes
		rows, err := runScale(seed, o.scaleSizes)
		if err != nil {
			return err
		}
		results = rows
	case "faults":
		// Message-level rounds with retransmission over the full
		// 256k-VS system by default; -faultnodes shrinks it for smoke
		// runs (ci.sh runs the small size twice to pin determinism).
		nodes = o.faultNodes
		cfg.Nodes = nodes
		cfg.DropRates = faultRates
		rows, err := exp.FaultSweep(seed, nodes, faultRates, 6)
		if err != nil {
			return err
		}
		part, err := exp.PartitionRecovery(seed, nodes, 2, 6)
		if err != nil {
			return err
		}
		results = map[string]interface{}{
			"drop_sweep":         rows,
			"partition_recovery": part,
		}
	case "cluster":
		cfg.Nodes = 0
		cfg.Procs = o.procs
		cfg.Rounds = o.clusterRounds
		cfg.Kills = o.clusterKills
		report, snap, err := runCluster(seed, o)
		if err != nil {
			return err
		}
		results = report
		mergedSnap = snap
	case "serve":
		cfg.Nodes = 0
		cfg.ServeSizes = o.serveSizes
		cfg.ServeReqs = o.serveRequests
		rows, err := runServe(seed, o.serveSizes, o.serveRequests, reg)
		if err != nil {
			return err
		}
		results = rows
	default:
		return fmt.Errorf("unknown benchmark %q (want fig4, fig7, vsatime, scale, faults, cluster, serve)", name)
	}
	wall := time.Since(start)

	snap := reg.Snapshot()
	if mergedSnap != nil {
		// The cluster benchmark's metrics come merged from the daemons'
		// /metrics endpoints, not from this process's registry.
		snap = *mergedSnap
	}
	report := benchReport{
		Name:     name,
		UnixTime: time.Now().Unix(),
		Config:   cfg,
		WallMS:   wall.Milliseconds(),
		Results:  results,
		Metrics:  &snap,
	}
	path := filepath.Join(out, "BENCH_"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Printf("lbbench: %s done in %d ms -> %s\n", name, report.WallMS, path)
	return nil
}

// faultRates is the drop-rate grid of the faults benchmark, matching
// `lbsim -fig faults`.
var faultRates = []float64{0, 0.05, 0.10, 0.20, 0.30}

// runServe replays the tail-latency serving sweep at each ring size and
// enforces the two claims the committed BENCH_serve.json exists to pin:
// interleaved balancing strictly improves the service tail over the
// balancer-off baseline on the same plan, and the hot-path lookup cache
// cuts mean overlay hops against the uncached variant. The gate only
// arms at >= 100k requests — below that (smoke runs) the tail is too
// noisy to assert on.
func runServe(seed int64, sizes []int, requests int, reg *metrics.Registry) ([]exp.ServeRow, error) {
	var all []exp.ServeRow
	for _, n := range sizes {
		s := exp.DefaultServeSetup(seed)
		s.Nodes = n
		s.Requests = requests
		s.Metrics = reg
		rows, err := exp.ServeSweep(s)
		if err != nil {
			return nil, err
		}
		if requests >= 100_000 {
			if err := checkServeRows(rows); err != nil {
				return nil, fmt.Errorf("serve acceptance at %d nodes: %w", n, err)
			}
		}
		all = append(all, rows...)
	}
	return all, nil
}

// checkServeRows asserts the balancer-on vs balancer-off tail contrast
// and the cached vs uncached hop contrast across one size's variants.
func checkServeRows(rows []exp.ServeRow) error {
	byName := map[string]exp.ServeRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	off, on, nocache := byName["balancer-off"], byName["balancer-on"], byName["balancer-on-nocache"]
	if off.Report == nil || on.Report == nil || nocache.Report == nil {
		return fmt.Errorf("missing variant in sweep output")
	}
	if on.Service.P99 >= off.Service.P99 {
		return fmt.Errorf("balancer-on service p99 %.0f not below balancer-off %.0f", on.Service.P99, off.Service.P99)
	}
	if on.Service.P999 >= off.Service.P999 {
		return fmt.Errorf("balancer-on service p999 %.0f not below balancer-off %.0f", on.Service.P999, off.Service.P999)
	}
	if on.MeanHops >= nocache.MeanHops {
		return fmt.Errorf("cached mean hops %.3f not below uncached %.3f", on.MeanHops, nocache.MeanHops)
	}
	return nil
}

// runCluster drives the multi-process chaos harness: lbd daemons over
// real TCP, SIGKILLs mid-round, supervisor restarts. The returned
// snapshot is the union of every daemon's /metrics endpoint (kills,
// restarts, wire retries, WAL replays), scraped just before teardown.
func runCluster(seed int64, o benchOpts) (*cluster.ChaosReport, *metrics.Snapshot, error) {
	bin := o.lbdBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "lbbench-lbd")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "lbd")
		cmd := exec.Command("go", "build", "-o", bin, "p2plb/cmd/lbd")
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, nil, fmt.Errorf("building lbd: %v\n%s", err, out)
		}
	}
	dataDir, err := os.MkdirTemp("", "lbbench-cluster")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dataDir)
	report, err := cluster.RunChaos(cluster.ChaosConfig{
		Bin:     bin,
		DataDir: dataDir,
		Seed:    seed,
		Procs:   o.procs,
		Rounds:  o.clusterRounds,
		Kills:   o.clusterKills,
	})
	if err != nil {
		return nil, nil, err
	}
	return report, report.Metrics, nil
}

// scaleRow is one system size of the scale benchmark: wall times for
// the setup phases that used to be quadratic, one closed-form balancing
// round, and an incremental-repair probe after churning ~1% of the
// nodes. Skipped phases report -1 (never omitted, so a round that
// balances every heavy node — heavy_after 0 — stays distinguishable
// from a round that never ran).
type scaleRow struct {
	VServers      int   `json:"vservers"`
	Nodes         int   `json:"nodes"`
	BuildMS       int64 `json:"ring_build_ms"`
	LoadMS        int64 `json:"load_assign_ms"`
	TreeMS        int64 `json:"tree_build_ms"`
	RoundMS       int64 `json:"round_ms"`
	HeavyBefore   int   `json:"heavy_before"`
	HeavyAfter    int   `json:"heavy_after"`
	TreeNodes     int   `json:"tree_nodes"`
	TreeHeight    int   `json:"tree_height"`
	RepairMS      int64 `json:"repair_ms"`
	RepairChanges int   `json:"repair_changes"`
}

// checkTreeShape guards the compressed-tree regression: with chain
// collapse the KT tree must stay near log2(V) deep and near-linear in
// V, never the identifier-bits-deep, ~22-nodes-per-VS shape the naive
// dyadic recursion produced.
func checkTreeShape(tree *ktree.Tree, vss int) error {
	if lim := 2 * int(math.Ceil(math.Log2(float64(vss)))); tree.Height() > lim {
		return fmt.Errorf("scale %d VSs: tree height %d exceeds 2*log2(V) = %d — chain collapse regressed", vss, tree.Height(), lim)
	}
	if lim := 5 * vss; tree.NumNodes() > lim {
		return fmt.Errorf("scale %d VSs: %d KT nodes exceeds 5/VS — compression regressed", vss, tree.NumNodes())
	}
	return nil
}

// runScale times ring population (the bulk path exp.Build uses), load
// assignment, K-nary tree construction, one full balancing round, and
// an incremental repair after churn, at each requested virtual-server
// count, with 5 VSs per node as everywhere in the paper.
func runScale(seed int64, scaleSizes []int) ([]scaleRow, error) {
	const vsPerNode = 5
	profile := workload.GnutellaProfile()
	var rows []scaleRow
	for _, vsCount := range scaleSizes {
		n := vsCount / vsPerNode
		if n < 1 {
			return nil, fmt.Errorf("scale size %d smaller than one node's %d VSs", vsCount, vsPerNode)
		}
		eng := sim.NewEngine(seed)
		ring := chord.NewRing(eng, chord.Config{})
		start := time.Now()
		ring.BulkAddNodes(n, vsPerNode,
			func(int) topology.NodeID { return -1 },
			func(int) float64 { return profile.Sample(eng.Rand()) })
		row := scaleRow{VServers: ring.NumVServers(), Nodes: n,
			BuildMS: time.Since(start).Milliseconds(),
			RoundMS: -1, HeavyBefore: -1, HeavyAfter: -1, RepairMS: -1}

		mu := float64(n) * 100
		model := workload.Gaussian{Mu: mu, Sigma: mu / 200}
		start = time.Now()
		for _, vs := range ring.VServers() {
			vs.Load = model.Load(eng.Rand(), ring.RegionOf(vs).Fraction())
		}
		row.LoadMS = time.Since(start).Milliseconds()

		start = time.Now()
		tree, err := ktree.New(ring, 2)
		if err != nil {
			return nil, err
		}
		if err := tree.Build(); err != nil {
			return nil, err
		}
		row.TreeMS = time.Since(start).Milliseconds()
		row.TreeNodes = tree.NumNodes()
		row.TreeHeight = tree.Height()
		if err := checkTreeShape(tree, ring.NumVServers()); err != nil {
			return nil, err
		}

		bal, err := core.NewBalancer(ring, tree, core.Config{Epsilon: 0.05})
		if err != nil {
			return nil, err
		}
		start = time.Now()
		res, err := bal.RunRound()
		if err != nil {
			return nil, err
		}
		row.RoundMS = time.Since(start).Milliseconds()
		row.HeavyBefore = res.HeavyBefore
		row.HeavyAfter = res.HeavyAfter

		// Incremental-repair probe: churn ~1% of the nodes, repair, and
		// verify the repaired tree is structurally sound.
		churn := n / 100
		if churn < 1 {
			churn = 1
		}
		alive := ring.AliveNodes()
		for i := 0; i < churn && i < len(alive); i++ {
			ring.RemoveNode(alive[i])
		}
		for i := 0; i < churn; i++ {
			ring.AddNode(-1, profile.Sample(eng.Rand()), vsPerNode)
		}
		start = time.Now()
		changes, err := tree.Repair()
		if err != nil {
			return nil, err
		}
		row.RepairMS = time.Since(start).Milliseconds()
		row.RepairChanges = changes
		tree.CheckInvariants()

		rows = append(rows, row)
		fmt.Printf("lbbench: scale %d VSs: build %d ms, loads %d ms, tree %d ms (%d KT nodes, height %d), round %d ms, repair %d ms (%d changes)\n",
			row.VServers, row.BuildMS, row.LoadMS, row.TreeMS, row.TreeNodes, row.TreeHeight, row.RoundMS, row.RepairMS, row.RepairChanges)
	}
	return rows, nil
}
