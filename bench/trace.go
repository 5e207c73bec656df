package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public surface, recorded from
// the benchmark's side of the call. Spans nest by Parent (0 is the
// root); host times are nanoseconds since the tracer started, sim times
// are engine ticks (0 where no engine is involved).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SimStart int64  `json:"sim_start"`
	SimEnd   int64  `json:"sim_end"`
	Count    int64  `json:"count"`
}

// tracer keeps spans in memory until the workload ends. All methods are
// no-ops on a nil tracer, so workload code calls them unconditionally.
// It is used from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open span ids, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name, layer string, sim int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Layer: layer,
		StartNS: t.now(), SimStart: sim})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, sim, count int64) {
	if t == nil {
		return
	}
	if t.parent() != id {
		panic("bench: spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.EndNS, s.SimEnd, s.Count = t.now(), sim, count
}

// interleaved records work that shares its host interval with its
// parent's other work (a balancing round among request events): it
// carries simulated time only, and a zero host duration so it is never
// subtracted from the parent's self time.
func (t *tracer) interleaved(name, layer string, simStart, simEnd, count int64) {
	if t == nil {
		return
	}
	now := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Name: name, Layer: layer,
		StartNS: now, EndNS: now, SimStart: simStart, SimEnd: simEnd, Count: count})
}

// selfNS is a span's duration minus what its direct children cover.
func (t *tracer) selfNS(id int) int64 {
	s := t.spans[id-1]
	self := s.EndNS - s.StartNS
	for _, c := range t.spans {
		if c.Parent == id {
			self -= c.EndNS - c.StartNS
		}
	}
	return self
}

// find returns the id of the first span with the given name, 0 if none.
func (t *tracer) find(name string) int {
	if t == nil {
		return 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			return s.ID
		}
	}
	return 0
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
