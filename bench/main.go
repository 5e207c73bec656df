// Command bench is the repository's layered benchmark: six named
// workloads run one after another in one process, each reporting the
// same end-to-end metrics, with a traced re-run that attributes the
// numbers to layers from outside the program. README.md in this
// directory is the contract; BENCHMARK.json at the repository root is
// its machine-readable half.
//
//	go run ./bench                       all six workloads, end-to-end metrics
//	go run ./bench -trace                plus the traced run and per-layer metrics
//	go run ./bench -sets 2               the whole set twice, compared against the bounds
//	go run ./bench -workload serve-zipf-2k -seed 3 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadDef is one workload; the JSON form is its entry in
// BENCHMARK.json.
type workloadDef struct {
	Name string            `json:"name"`
	Why  string            `json:"why"`
	Run  func(*pass) error `json:"-"`
	// Exact says the workload is a deterministic simulation: its
	// simulated metrics repeat bit for bit at one (seed, seconds).
	Exact bool `json:"-"`
}

var workloads = []workloadDef{
	{"round-oracle-128k",
		"closed-form round at 128k virtual servers: chord bulk build, ktree Build/Repair and core LBI/VSA/VST do all the work; the event queue, protocol, serve and wire do none",
		runRoundOracle, true},
	{"round-msg-32k",
		"message-level round at 32k virtual servers: every message is an engine event, so the sim timer wheel, protocol reliable exchange and lbnode collectors dominate",
		func(p *pass) error { return runRoundMsg(p, 0) }, true},
	{"round-msg-lossy-32k",
		"the same round under 10% message drop: retransmission timers, dedup, epoch expiry and handoff aborts, the path a lossless fast-path gain can tax",
		func(p *pass) error { return runRoundMsg(p, 0.10) }, true},
	{"serve-zipf-2k",
		"Zipf 1.1 request stream, 10% puts, at 2048 nodes with rounds interleaved: plan, cached lookup, node FIFO, EWMA observation and promotion end to end",
		func(p *pass) error { return runServe(p, serveConfig{nodes: 2048, putFraction: 0.1}) }, true},
	{"serve-put-heavy-2k",
		"the same stream with 50% puts: writes cost twice the work and write through to two replicas, so a get-side gain that taxes puts shows",
		func(p *pass) error { return runServe(p, serveConfig{nodes: 2048, putFraction: 0.5}) }, true},
	{"cluster-loopback-4",
		"four daemons over loopback TCP with per-rank WALs, clean rounds then a leaf restart: the only workload on wire framing/acks, WAL append/replay and the deployed daemon",
		runCluster, false},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type options struct {
	seed    int64
	seconds int
	scale   int
	trace   bool
	outDir  string
	// reruns is how often a workload measured on a host that changed
	// speed under it (calibration drift above 10%) is run again.
	reruns int
}

// outcome is what one workload produced: the untraced pass always, the
// traced pass when asked for.
type outcome struct {
	Workload     *workloadDef
	Plain        *pass
	Traced       *pass
	Before       calib
	After        calib
	HostUnstable bool
	Err          error
}

func (o *outcome) ok() bool {
	if o.Err != nil || o.Plain.failed > 0 || len(o.Plain.misuse) > 0 {
		return false
	}
	return o.Traced == nil || (o.Traced.failed == 0 && len(o.Traced.misuse) == 0)
}

const driftLimit = 0.10

func runPass(w *workloadDef, opt options, tr *tracer) (*pass, error) {
	p := newPass(opt.seed, opt.seconds, opt.scale, opt.outDir, tr)
	root := tr.begin(w.Name, "bench", 0)
	err := w.Run(p)
	if err == nil {
		tr.end(root, 0, int64(p.attempted))
	}
	p.flush()
	return p, err
}

// measure runs one workload: calibration, the untraced pass the
// end-to-end numbers come from, optionally the traced pass, calibration
// again. A pass on a host that drifted is repeated, at most opt.reruns
// times.
func measure(w *workloadDef, opt options) *outcome {
	var o *outcome
	for try := 0; ; try++ {
		o = &outcome{Workload: w, Before: calibrate(opt.scale)}
		o.Plain, o.Err = runPass(w, opt, nil)
		if o.Err == nil && opt.trace {
			tr := newTracer()
			o.Traced, o.Err = runPass(w, opt, tr)
			if o.Err == nil {
				o.finishTrace(tr, opt)
			}
		}
		o.After = calibrate(opt.scale)
		o.HostUnstable = o.Before.drift(o.After) > driftLimit
		if !o.HostUnstable || try >= opt.reruns || o.Err != nil {
			return o
		}
		fmt.Printf("# %s: host_unstable (calibration drift %.1f%%), running again\n",
			w.Name, 100*o.Before.drift(o.After))
	}
}

// finishTrace writes the span file, holds the traced pass to the
// untraced pass's simulated statistics, and fills in the metrics that
// compare the two passes.
func (o *outcome) finishTrace(tr *tracer, opt options) {
	t := o.Traced
	path := filepath.Join(opt.outDir, "trace-"+o.Workload.Name+".jsonl")
	t.check("write trace", tr.write(path))
	if t.digest() != o.Plain.digest() {
		t.fail("traced sim_digest %016x differs from untraced %016x", t.digest(), o.Plain.digest())
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS || tr.selfNS(s.ID) < 0 {
			t.fail("span %d %s has negative duration or self time", s.ID, s.Name)
		}
	}
	if o.Plain.timedNS > 0 {
		t.set("trace_overhead_frac", float64(t.timedNS-o.Plain.timedNS)/float64(o.Plain.timedNS), 1)
	}
}

// layerMetrics returns every per-layer metric of a traced outcome; a
// layer the workload never entered reads 0 with n = 0.
func (o *outcome) layerMetrics() map[string]sample {
	out := make(map[string]sample, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = o.Traced.metrics[d.Name]
	}
	out["host.calib_cpu_ms"] = sample{(o.Before.CPUMS + o.After.CPUMS) / 2, 2}
	out["host.calib_mem_ms"] = sample{(o.Before.MemMS + o.After.MemMS) / 2, 2}
	out["host.calib_drift_frac"] = sample{o.Before.drift(o.After), 1}
	return out
}

func (o *outcome) endToEndMetrics() map[string]sample {
	out := make(map[string]sample, len(endToEnd))
	for _, d := range endToEnd {
		if s, ok := o.Plain.metrics[d.Name]; ok {
			out[d.Name] = s
		}
	}
	return out
}

func printMetrics(defs []metricDef, vals map[string]sample) {
	for _, d := range defs {
		s, ok := vals[d.Name]
		if !ok {
			fmt.Printf("  %-34s MISSING\n", d.Name)
			continue
		}
		fmt.Printf("  %-34s %16.6g %-6s clock=%-4s n=%d\n", d.Name, s.Value, d.Unit, d.Clock, s.N)
	}
}

func (o *outcome) print() {
	fmt.Printf("== %s seed=%d seconds=%d\n", o.Workload.Name, o.Plain.seed, o.Plain.seconds)
	if o.Err != nil {
		fmt.Printf("  ERROR: %v\n", o.Err)
		return
	}
	printMetrics(endToEnd, o.endToEndMetrics())
	p := o.Plain
	fmt.Printf("  failed_frac=%g (%d of %d) sim_digest=%016x host_unstable=%v calib_cpu_ms=%.1f/%.1f calib_mem_ms=%.1f/%.1f\n",
		float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted, p.digest(), o.HostUnstable,
		o.Before.CPUMS, o.After.CPUMS, o.Before.MemMS, o.After.MemMS)
	for _, n := range p.notes {
		fmt.Printf("  %s\n", n)
	}
	if o.Traced != nil {
		fmt.Printf("  -- traced run (sim_digest=%016x)\n", o.Traced.digest())
		printMetrics(perLayer, o.layerMetrics())
	}
	for _, ps := range []*pass{o.Plain, o.Traced} {
		if ps == nil {
			continue
		}
		for _, f := range append(ps.failures, ps.misuse...) {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
}

// resultLine is the last line of a single-workload run, the form the
// benchmark driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) resultLine() resultLine {
	defs, vals, p := endToEnd, o.endToEndMetrics(), o.Plain
	if o.Traced != nil {
		defs, vals, p = perLayer, o.layerMetrics(), o.Traced
	}
	line := resultLine{Correct: o.ok(), Attempted: p.attempted, Failed: p.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		s, ok := vals[d.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			line.Correct = false
			continue
		}
		line.Metrics[d.Name] = metricValue{s.Value, d.Unit}
	}
	return line
}

// runSeconds is the run length BENCHMARK.json asks the driver for, and
// the default of -seconds.
const runSeconds = 10

// contractJSON renders BENCHMARK.json from the workload and metric
// tables, so the file at the repository root has one source.
func contractJSON() []byte {
	raw, _ := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEnd, perLayer}, "", "  ")
	return append(raw, '\n')
}

// normalizeTrace lets -trace be given bare (go run ./bench -trace) or
// with the driver's separate 0/1 value (--trace 1).
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload and end with one JSON result line")
	seed := fs.Int64("seed", 1, "workload seed; repetition i uses seed+i")
	seconds := fs.Int("seconds", runSeconds, "run length each workload is sized for (1-60)")
	trace := fs.Bool("trace", false, "also run traced: per-layer metrics and bench/out/trace-<workload>.jsonl")
	sets := fs.Int("sets", 0, "run the whole set this many times and compare the sets against the bounds")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for span files and WAL scratch")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as this package's tables define it, and exit")
	fs.Parse(normalizeTrace(os.Args[1:]))

	if *contract {
		os.Stdout.Write(contractJSON())
		return
	}
	if fs.NArg() > 0 || *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or -seconds outside 1..60")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS %d exceeds nproc %d; refusing to measure an oversubscribed host\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, scale: 1, trace: *trace, outDir: *out}
	stamp, _ := json.Marshal(stampHost())
	fmt.Printf("# host %s\n", stamp)

	switch {
	case *sets > 0:
		opt.reruns = 2
		os.Exit(runSets(*sets, opt))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		o := measure(w, opt)
		o.print()
		if o.Err != nil {
			os.Exit(1)
		}
		line, _ := json.Marshal(o.resultLine())
		fmt.Println(string(line))
		if !o.ok() {
			os.Exit(1)
		}
	default:
		opt.reruns = 2
		if !runAll(opt).ok() {
			os.Exit(1)
		}
	}
}

// set is one run of all six workloads, strictly one after another.
type set []*outcome

func (s set) ok() bool {
	for _, o := range s {
		if !o.ok() {
			return false
		}
	}
	return true
}

func runAll(opt options) set {
	var s set
	for i := range workloads {
		start := time.Now()
		o := measure(&workloads[i], opt)
		o.print()
		fmt.Printf("  wall %.1f s\n", time.Since(start).Seconds())
		s = append(s, o)
	}
	return s
}

// runSets runs the whole set n times back to back and, per workload and
// end-to-end metric, compares every later set with the first: host
// metrics may worsen by the metric's bound, simulated ones and the
// digest must repeat exactly.
func runSets(n int, opt options) int {
	all := make([]set, n)
	code := 0
	for i := range all {
		fmt.Printf("#### set %d of %d\n", i+1, n)
		all[i] = runAll(opt)
		if !all[i].ok() {
			code = 1
		}
	}
	fmt.Printf("#### comparison against set 1\n")
	fmt.Printf("%-22s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set k", "rel diff", "bound", "verdict")
	for wi := range workloads {
		first := all[0][wi]
		if first.Err != nil {
			continue
		}
		for k := 1; k < n; k++ {
			later := all[k][wi]
			if later.Err != nil {
				continue
			}
			if d0, d1 := first.Plain.digest(), later.Plain.digest(); d0 != d1 {
				fmt.Printf("%-22s sim_digest %016x != %016x  BREACH\n", first.Workload.Name, d0, d1)
				code = 1
			}
			for _, d := range endToEnd {
				a, b := first.Plain.metrics[d.Name].Value, later.Plain.metrics[d.Name].Value
				worse := (b - a) / a
				if d.Better == "higher" {
					worse = (a - b) / a
				}
				verdict := "ok"
				switch {
				case d.Clock == simc && first.Workload.Exact:
					if a != b {
						verdict = "BREACH (simulated metric moved)"
					}
				case worse > d.Bound:
					verdict = "BREACH"
				}
				if strings.HasPrefix(verdict, "BREACH") {
					code = 1
				}
				fmt.Printf("%-22s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
					first.Workload.Name, d.Name, a, b, 100*(b-a)/a, 100*d.Bound, verdict)
			}
		}
	}
	return code
}
