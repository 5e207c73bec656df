package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// Bucket is one non-empty histogram bucket in a snapshot: observations
// v with Lo <= v < Hi.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram frozen at snapshot time. Only
// non-empty buckets are kept.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an approximate q-quantile (q in [0,1]) assuming a
// uniform spread inside each bucket. It returns 0 for an empty
// histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var seen float64
	for _, b := range h.Buckets {
		next := seen + float64(b.Count)
		if next >= target {
			lo, hi := float64(b.Lo), float64(b.Hi)
			if lo < float64(h.Min) {
				lo = float64(h.Min)
			}
			if hi > float64(h.Max)+1 {
				hi = float64(h.Max) + 1
			}
			if b.Count == 0 || hi <= lo {
				return lo
			}
			frac := (target - seen) / float64(b.Count)
			return lo + frac*(hi-lo)
		}
		seen = next
	}
	return float64(h.Max)
}

// merge combines another snapshot of the same (or a disjoint) histogram
// into h.
func (h HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	if o.Count == 0 {
		return h
	}
	if h.Count == 0 {
		return o
	}
	out := HistogramSnapshot{
		Count: h.Count + o.Count,
		Sum:   h.Sum + o.Sum,
		Min:   h.Min,
		Max:   h.Max,
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	byLo := make(map[int64]Bucket, len(h.Buckets)+len(o.Buckets))
	for _, b := range h.Buckets {
		byLo[b.Lo] = b
	}
	for _, b := range o.Buckets {
		if prev, ok := byLo[b.Lo]; ok {
			prev.Count += b.Count
			byLo[b.Lo] = prev
		} else {
			byLo[b.Lo] = b
		}
	}
	for _, b := range byLo {
		out.Buckets = append(out.Buckets, b)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Lo < out.Buckets[j].Lo })
	return out
}

// Snapshot is a point-in-time copy of a Registry's contents, suitable
// for JSON/CSV export, merging across runs, and diffing across PRs.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Floats     map[string]float64           `json:"floats,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current contents.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Floats:     make(map[string]float64, len(r.floats)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, f := range r.floats {
		s.Floats[name] = f.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	return s
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if out.Count > 0 {
		out.Min = h.min.Load()
		out.Max = h.max.Load()
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n != 0 {
			out.Buckets = append(out.Buckets, Bucket{Lo: BucketLo(i), Hi: BucketHi(i), Count: n})
		}
	}
	return out
}

// Merge folds another snapshot into s: counters and floats add,
// and histograms combine.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	if s.Floats == nil {
		s.Floats = make(map[string]float64)
	}
	for k, v := range o.Floats {
		s.Floats[k] += v
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for k, v := range o.Histograms {
		s.Histograms[k] = s.Histograms[k].merge(v)
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON parses a snapshot previously written with WriteJSON.
func ReadJSON(r io.Reader) (Snapshot, error) {
	var s Snapshot
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

// WriteCSV writes the snapshot as flat rows: kind,name,field,value.
// Histograms expand to count/sum/min/max/mean rows plus one row per
// bucket.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "field", "value"}); err != nil {
		return err
	}
	fmtInt := func(v int64) string { return strconv.FormatInt(v, 10) }
	fmtFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, name := range sortedKeys(s.Counters) {
		cw.Write([]string{"counter", name, "value", fmtInt(s.Counters[name])})
	}
	for _, name := range sortedKeys(s.Floats) {
		cw.Write([]string{"float", name, "value", fmtFloat(s.Floats[name])})
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		cw.Write([]string{"histogram", name, "count", fmtInt(h.Count)})
		cw.Write([]string{"histogram", name, "sum", fmtInt(h.Sum)})
		cw.Write([]string{"histogram", name, "min", fmtInt(h.Min)})
		cw.Write([]string{"histogram", name, "max", fmtInt(h.Max)})
		cw.Write([]string{"histogram", name, "mean", fmtFloat(h.Mean())})
		for _, b := range h.Buckets {
			lo := fmtInt(b.Lo)
			if b.Lo == math.MinInt64 {
				lo = "-inf"
			}
			cw.Write([]string{"histogram", name, "bucket<" + lo + ">", fmtInt(b.Count)})
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile writes the snapshot to path: CSV when the path ends in
// ".csv", indented JSON otherwise.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".csv" {
		if err := s.WriteCSV(f); err != nil {
			return fmt.Errorf("metrics: writing %s: %w", path, err)
		}
		return nil
	}
	if err := s.WriteJSON(f); err != nil {
		return fmt.Errorf("metrics: writing %s: %w", path, err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
