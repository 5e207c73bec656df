package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"p2plb/internal/serve"
)

// TestSweepsDeterministic runs each message-level or whole-lifecycle
// sweep twice at one seed and requires identical rows: the simulated
// outcome of an experiment is a function of (seed, size) only, however
// internal/par schedules the variants. Serve rows carry the per-request
// latency checksums, so equality pins the raw latency streams, not just
// their summaries. The rows are logged (-v) as the small-size record
// CHANGES.md quotes.
func TestSweepsDeterministic(t *testing.T) {
	type faultsOut struct {
		Sweep     []FaultRow
		Partition PartitionRow
	}
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"faults-128", func() (any, error) {
			rows, err := FaultSweep(1, 128, FaultRates, 6)
			if err != nil {
				return nil, err
			}
			part, err := PartitionRecovery(1, 128, 2, 6)
			return faultsOut{rows, part}, err
		}},
		{"serve-128-20k", func() (any, error) {
			s := DefaultServeSetup(1)
			s.Nodes = 128
			s.Requests = 20_000
			return ServeSweep(s)
		}},
		{"scale-4000", func() (any, error) {
			return ScaleSweep(1, []int{4000}, nil)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			a, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(a)
			if !reflect.DeepEqual(a, b) {
				jb, _ := json.Marshal(b)
				t.Fatalf("same seed, different rows:\n%s\n%s", ja, jb)
			}
			if len(ja) < 100 {
				t.Fatalf("suspiciously empty result: %s", ja)
			}
			t.Logf("%s", ja)
		})
	}
}

// serveRows builds a three-variant sweep result from the numbers
// CheckServeRows reads: service p99 / p999 and mean hops per variant.
func serveRows(requests int, off, on, nocache [3]float64) []ServeRow {
	row := func(variant string, v [3]float64) ServeRow {
		return ServeRow{Variant: variant, Report: &serve.Report{
			Requests: requests,
			Service:  serve.LatencySummary{P99: v[0], P999: v[1]},
			MeanHops: v[2],
		}}
	}
	return []ServeRow{row("balancer-off", off), row("balancer-on", on), row("balancer-on-nocache", nocache)}
}

func TestCheckServeRows(t *testing.T) {
	// EXPERIMENTS.md "Tail latency": 4,096 nodes, 1M requests, seed 1.
	var (
		off     = [3]float64{798_352, 1_363_535, 5.99}
		on      = [3]float64{1_508, 7_228, 6.53}
		nocache = [3]float64{1_662, 7_530, 7.95}
	)
	if err := CheckServeRows(serveRows(1_000_000, off, on, nocache)); err != nil {
		t.Errorf("committed row values rejected: %v", err)
	}
	for name, rows := range map[string][]ServeRow{
		"p99 swapped":     serveRows(1_000_000, [3]float64{on[0], off[1], off[2]}, [3]float64{off[0], on[1], on[2]}, nocache),
		"p999 swapped":    serveRows(1_000_000, [3]float64{off[0], on[1], off[2]}, [3]float64{on[0], off[1], on[2]}, nocache),
		"cache no help":   serveRows(1_000_000, off, on, on),
		"variant missing": serveRows(1_000_000, off, on, nocache)[:2],
	} {
		if err := CheckServeRows(rows); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Below the arming size the tail is noise, not a claim.
	if err := CheckServeRows(serveRows(20_000, on, off, nocache)); err != nil {
		t.Errorf("smoke-size sweep gated: %v", err)
	}
}
