package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestContractMatchesTables holds BENCHMARK.json at the repository root
// to the tables in this package: `go run ./bench -contract` must
// reproduce the file byte for byte.
func TestContractMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -contract`; regenerate it or fix the tables")
	}
}

// TestSmoke runs every workload at 1/64 size through the code path the
// committed sizes use, traced, and checks the benchmark's own promises:
// every named metric is reported exactly once, none unnamed, spans nest
// with non-negative self time, and two runs at one seed (the untraced
// and the traced pass) agree on every simulated statistic.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			o := measure(w, options{seed: 1, seconds: 2, scale: 64, trace: true, outDir: out})
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			for _, p := range []*pass{o.Plain, o.Traced} {
				for _, f := range append(p.failures, p.misuse...) {
					t.Error(f)
				}
				if p.attempted < 1 {
					t.Error("no operation attempted")
				}
			}
			if o.Plain.digest() != o.Traced.digest() {
				t.Errorf("sim_digest %016x untraced, %016x traced", o.Plain.digest(), o.Traced.digest())
			}
			e2e := o.endToEndMetrics()
			for _, d := range endToEnd {
				s, ok := e2e[d.Name]
				if !ok || !(s.Value > 0) || math.IsInf(s.Value, 0) || s.N < 1 || d.Unit == "" {
					t.Errorf("end-to-end metric %s: %+v (reported=%v) must be positive, finite and counted", d.Name, s, ok)
				}
			}
			layers := o.layerMetrics()
			if len(layers) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d named", len(layers), len(perLayer))
			}
			line := o.resultLine()
			if !line.Correct || len(line.Metrics) != len(perLayer) {
				t.Errorf("traced result line: correct=%v with %d metrics", line.Correct, len(line.Metrics))
			}
			checkSpans(t, filepath.Join(out, "trace-"+w.Name+".jsonl"))
		})
	}
}

// checkSpans reads a span file back and checks that every span lies
// inside its parent and that no parent is over-covered by its children.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 || spans[0].Parent != 0 {
		t.Fatalf("%s: no root span", path)
	}
	covered := make(map[int]int64)
	for i, s := range spans {
		if s.ID != i+1 || s.EndNS < s.StartNS || s.Layer == "" || s.Name == "" {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Errorf("span %d names a later parent %d", s.ID, s.Parent)
			continue
		}
		par := spans[s.Parent-1]
		if s.StartNS < par.StartNS || s.EndNS > par.EndNS {
			t.Errorf("span %d %s escapes its parent %s", s.ID, s.Name, par.Name)
		}
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	for id, c := range covered {
		if par := spans[id-1]; c > par.EndNS-par.StartNS {
			t.Errorf("span %d %s has negative self time", id, par.Name)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "w", "--trace", "1", "-trace", "--trace", "0", "-seed", "3"})
	want := []string{"--workload", "w", "-trace=1", "-trace", "-trace=0", "-seed", "3"}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}
