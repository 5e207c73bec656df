package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"p2plb/internal/chord"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
)

// sample is one reported metric value; N is how many observations it
// summarizes (the reps behind a median, the requests behind a
// percentile, 1 for a total).
type sample struct {
	Value float64
	N     int
}

// pass is one execution of one workload, traced or not. The workload
// code is identical in both: a nil tracer records nothing, and the
// allocation deltas that need runtime.ReadMemStats (a stop-the-world
// call) are taken only when tracing.
type pass struct {
	seed    int64
	seconds int
	scale   int // size divisor; 1 is the committed size, the smoke test uses 64
	tr      *tracer
	outDir  string

	obsv    map[string][]float64 // observations reported as their median
	metrics map[string]sample
	misuse  []string // unknown or doubly reported metric names

	attempted int
	failed    int
	failures  []string

	sim     hash.Hash64 // FNV-64a over every simulated statistic
	timedNS int64       // host time inside timed sections, for trace overhead
	notes   []string
}

func newPass(seed int64, seconds, scale int, outDir string, tr *tracer) *pass {
	return &pass{
		seed: seed, seconds: seconds, scale: scale, outDir: outDir, tr: tr,
		obsv:    make(map[string][]float64),
		metrics: make(map[string]sample),
		sim:     fnv.New64a(),
	}
}

func (p *pass) traced() bool { return p.tr != nil }

func known(name string) bool {
	_, e := endToEndByName[name]
	_, l := perLayerByName[name]
	return e || l
}

// obs adds one observation of a metric reported as a median over reps.
func (p *pass) obs(name string, v float64) {
	if !known(name) {
		p.misuse = append(p.misuse, "unnamed metric "+name)
		return
	}
	if _, dup := p.metrics[name]; dup {
		p.misuse = append(p.misuse, "metric both set and observed: "+name)
		return
	}
	p.obsv[name] = append(p.obsv[name], v)
}

// set reports a metric that is a single value (a total, a rate over the
// whole run, a percentile over n samples).
func (p *pass) set(name string, v float64, n int) {
	if !known(name) {
		p.misuse = append(p.misuse, "unnamed metric "+name)
		return
	}
	_, dup := p.metrics[name]
	if _, dupObs := p.obsv[name]; dup || dupObs {
		p.misuse = append(p.misuse, "metric reported twice: "+name)
		return
	}
	p.metrics[name] = sample{v, n}
}

// flush turns the observation lists into medians.
func (p *pass) flush() {
	for name, xs := range p.obsv {
		p.metrics[name] = sample{median(xs), len(xs)}
	}
	p.obsv = map[string][]float64{}
}

// fail counts one failed operation or oracle.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// check runs an oracle that reports by error.
func (p *pass) check(what string, err error) bool {
	if err != nil {
		p.fail("%s: %v", what, err)
		return false
	}
	return true
}

// guard runs an oracle that reports by panicking (the CheckInvariants
// family).
func (p *pass) guard(what string, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.fail("%s: %v", what, r)
		}
	}()
	fn()
}

// mix folds one simulated statistic into the digest.
func (p *pass) mix(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.sim.Write(b[:])
}

func (p *pass) mixF(v float64) { p.mix(math.Float64bits(v)) }

func (p *pass) mixS(s string) { p.sim.Write([]byte(s)) }

// digest is the sim_digest so far.
func (p *pass) digest() uint64 { return p.sim.Sum64() }

// memDelta is the allocation cost of one timed section.
type memDelta struct {
	Allocs uint64
	Bytes  uint64
}

func (m memDelta) mb() float64 { return float64(m.Bytes) / (1 << 20) }

// timed runs fn as one section of the benchmark: first a forced
// collection that also returns every free page to the OS, then a span
// around the call. The section so starts from a quiet heap, pays only
// for its own garbage, and always faults in what it allocates. (After a
// plain runtime.GC() the background scavenger may or may not have
// released the previous section's garbage by the time the next one
// allocates, and on this guest a 2,048-node tree.Repair then reads 13 ms
// or 35 ms, in runs of several cycles.) eng, when not nil, stamps the
// span with simulated time. The allocation delta is zero unless the
// pass is traced.
func (p *pass) timed(name, layer string, eng *sim.Engine, fn func()) (time.Duration, memDelta) {
	debug.FreeOSMemory()
	return p.span(name, layer, eng, fn)
}

// span is timed without the collection, for a section that follows
// another so closely that the heap is still quiet.
func (p *pass) span(name, layer string, eng *sim.Engine, fn func()) (time.Duration, memDelta) {
	var before, after runtime.MemStats
	if p.traced() {
		runtime.ReadMemStats(&before)
	}
	id := p.tr.begin(name, layer, simNow(eng))
	start := time.Now()
	fn()
	d := time.Since(start)
	p.tr.end(id, simNow(eng), 0)
	p.timedNS += int64(d)
	if !p.traced() {
		return d, memDelta{}
	}
	runtime.ReadMemStats(&after)
	return d, memDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

func simNow(eng *sim.Engine) int64 {
	if eng == nil {
		return 0
	}
	return int64(eng.Now())
}

// liveHeapMB is the heap still reachable after a forced collection.
// keep names the fixture, so it is counted.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is stats.Percentile reading 0, not NaN, on no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, q)
}

// giniOf is the Gini coefficient of load/capacity over the alive nodes.
func giniOf(ring *chord.Ring) float64 {
	var unit []float64
	for _, n := range ring.Nodes() {
		if n.Alive {
			unit = append(unit, n.TotalLoad()/n.Capacity)
		}
	}
	return stats.Gini(unit)
}

// repsFor sizes a workload's repetition count from the run length: per
// is the host seconds one repetition was measured to take on the
// reference host, so the run lasts about p.seconds. The count depends
// on nothing but the arguments, which keeps every simulated statistic a
// function of (seed, seconds).
func (p *pass) repsFor(per float64, atLeast int) int {
	n := int(float64(p.seconds) / per)
	if n < atLeast {
		n = atLeast
	}
	return n
}
