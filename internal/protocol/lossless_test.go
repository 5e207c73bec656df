package protocol

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
)

// transparentFilter delivers every message once with no extra delay,
// exactly what an engine without a filter does; its only effect is that
// every reliable message rides the exchange.
type transparentFilter struct{}

var oneCopy = []sim.Time{0}

func (transparentFilter) Deliveries(string, uint64, int, int, sim.Time, sim.Time) []sim.Time {
	return oneCopy
}

// tallies renders every per-kind message count and cost.
func tallies(eng *sim.Engine) string {
	var b strings.Builder
	for _, kind := range eng.MessageKinds() {
		fmt.Fprintf(&b, " %s=%d/%d", kind, eng.MessageCount(kind), eng.MessageCost(kind))
	}
	return b.String()
}

// sequentialRound runs one round through the sequential walk, crashing
// the crash highest-indexed nodes at tick 1 when crash > 0.
func sequentialRound(t *testing.T, ring *chord.Ring, tree *ktree.Tree, cfg Config, crash int) (*Result, error) {
	t.Helper()
	r, err := NewRunner(ring, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out *Result
	var outErr error
	sequentially(func() {
		if err := r.StartRound(func(res *Result, err error) { out, outErr = res, err }); err != nil {
			t.Fatal(err)
		}
		if crash > 0 {
			ring.Engine().Schedule(1, func() { crashLast(ring, tree, crash) })
		}
		ring.Engine().Run()
	})
	if out == nil && outErr == nil {
		t.Fatal("round never completed")
	}
	return out, outErr
}

// TestLosslessDeliveryMatchesExchange: a tree-walk message delivered
// straight to its role on a lossless engine leaves the same world as
// the same message through the reliable exchange, which a transparent
// filter forces — the same outcome, executed-event count, per-kind
// message tallies and per-node VS order.
func TestLosslessDeliveryMatchesExchange(t *testing.T) {
	type tc struct {
		k     int
		mode  core.Mode
		crash int
	}
	cases := []tc{
		{2, core.ProximityIgnorant, 0},
		{8, core.ProximityIgnorant, 0},
		{2, core.ProximityAware, 0},
		{8, core.ProximityAware, 0},
		{2, core.ProximityIgnorant, 48},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("K%d-%v-crash%d", c.k, c.mode, c.crash), func(t *testing.T) {
			cfg := Config{Core: core.Config{Epsilon: 0.05, Mode: c.mode}, ChildTimeout: 500}
			if c.mode == core.ProximityAware {
				cfg.Core.Mapper = blockMapper{}
			}
			run := func(filter sim.MessageFilter) (string, *Result) {
				ring, tree := forkFixture(5, 512, c.k)
				ring.Engine().SetFilter(filter)
				res, err := sequentialRound(t, ring, tree, cfg, c.crash)
				eng := ring.Engine()
				return fingerprint(res, err, eng) + tallies(eng) + " hosted=" + hostedOrder(ring), res
			}
			direct, res := run(nil)
			exchanged, _ := run(transparentFilter{})
			if direct != exchanged {
				t.Fatalf("direct delivery diverged from the exchange:\n  direct    %s\n  exchange  %s", direct, exchanged)
			}
			if res == nil || len(res.Assignments) == 0 || res.Retries != 0 {
				t.Fatalf("fixture is not a lossless balancing round: %s", direct)
			}
			if crashed := res.TimedOutChildren > 0; crashed != (c.crash > 0) {
				t.Fatalf("crash=%d but %d timed-out children", c.crash, res.TimedOutChildren)
			}
		})
	}
}

// BenchmarkLosslessRound is one sequential round at the served ring's
// shape (2,048 nodes × 5 VSs, K = 2, no filter): served rounds never
// fork, so this is the walk a serve round runs. It reports host time
// per executed event and the round's executed events; allocs/op is
// allocations per round. Each round runs on a freshly built fixture,
// outside the timer.
func BenchmarkLosslessRound(b *testing.B) {
	cfg := Config{Core: core.Config{Epsilon: 0.05}}
	var events uint64
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		ring, tree := forkFixture(1, 2048, 2)
		r, err := NewRunner(ring, tree, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var roundErr error
		eng := ring.Engine()
		before := eng.Executed()
		b.StartTimer()
		sequentially(func() {
			if err := r.StartRound(func(_ *Result, err error) { roundErr = err }); err != nil {
				b.Fatal(err)
			}
			eng.Run()
		})
		b.StopTimer()
		if roundErr != nil {
			b.Fatal(roundErr)
		}
		events += eng.Executed() - before
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/round")
}

// TestLosslessRoundAllocations pins what one sequential lossless round
// allocates at BenchmarkLosslessRound's shape. The collect walk keeps
// each phase's machine in its own slab, a VSA collector holds a list
// only once it has entries, and an LBI collector keeps its replies and
// their arrival flags in one slice: about 66k allocations a round. The
// bound sits between that and the 137k the round took when each phase
// had its own walk and every collector allocated a list.
func TestLosslessRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const maxAllocs = 100_000
	ring, tree := forkFixture(1, 2048, 2)
	r, err := NewRunner(ring, tree, Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	var roundErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sequentially(func() {
		if err := r.StartRound(func(_ *Result, err error) { roundErr = err }); err != nil {
			t.Fatal(err)
		}
		ring.Engine().Run()
	})
	runtime.ReadMemStats(&after)
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("one round: %d allocations, %.1f MB", allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if allocs >= maxAllocs {
		t.Fatalf("one lossless round made %d allocations, want fewer than %d", allocs, maxAllocs)
	}
}
