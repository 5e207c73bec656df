package metrics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrement(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
			reg.Float("moved").Add(0.5)
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Float("moved").Value(); got != workers*0.5 {
		t.Errorf("float counter = %v, want %v", got, workers*0.5)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			h := reg.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}()
	}
	wg.Wait()
	h := reg.Histogram("lat")
	n := int64(workers * perWorker)
	if h.Count() != n {
		t.Errorf("count = %d, want %d", h.Count(), n)
	}
	if want := n * (n - 1) / 2; h.Sum() != want {
		t.Errorf("sum = %d, want %d", h.Sum(), want)
	}
	snap := reg.Snapshot().Histograms["lat"]
	if snap.Min != 0 || snap.Max != n-1 {
		t.Errorf("min/max = %d/%d, want 0/%d", snap.Min, snap.Max, n-1)
	}
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != n {
		t.Errorf("bucket counts sum to %d, want %d", bucketTotal, n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{-3, 0, 1, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	snap := snapshotHistogram(h)
	want := map[int64]int64{math.MinInt64: 2, 1: 2, 2: 2, 4: 1, 512: 1}
	got := map[int64]int64{}
	for _, b := range snap.Buckets {
		got[b.Lo] = b.Count
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	if snap.Min != -3 || snap.Max != 1000 {
		t.Errorf("min/max = %d/%d", snap.Min, snap.Max)
	}
	// The 0.5 quantile must land in a populated bucket's range.
	if q := snap.Quantile(0.5); q < -3 || q > 1000 {
		t.Errorf("median %v out of observed range", q)
	}
}

func TestSpan(t *testing.T) {
	now := int64(100)
	clock := func() int64 { return now }
	reg := NewRegistry()
	sp := reg.Span("phase.vsa", clock)
	now = 350
	if d := sp.End(); d != 250 {
		t.Errorf("span duration = %d, want 250", d)
	}
	h := reg.Snapshot().Histograms["phase.vsa"]
	if h.Count != 1 || h.Sum != 250 {
		t.Errorf("histogram after span = %+v", h)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msgs").Add(42)
	reg.Float("moved").Add(17.5)
	h := reg.Histogram("hops")
	for _, v := range []int64{1, 2, 3, 9, 80} {
		h.Observe(v)
	}

	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip mismatch:\n  out: %+v\n  in:  %+v", snap, back)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only-b").Add(1)
	a.Float("f").Add(1.5)
	b.Float("f").Add(2.5)
	for _, v := range []int64{1, 5} {
		a.Histogram("h").Observe(v)
	}
	for _, v := range []int64{5, 100} {
		b.Histogram("h").Observe(v)
	}

	snap := a.Snapshot()
	snap.Merge(b.Snapshot())
	if snap.Counters["c"] != 7 || snap.Counters["only-b"] != 1 {
		t.Errorf("merged counters = %v", snap.Counters)
	}
	if snap.Floats["f"] != 4.0 {
		t.Errorf("merged float = %v", snap.Floats["f"])
	}
	h := snap.Histograms["h"]
	if h.Count != 4 || h.Sum != 111 || h.Min != 1 || h.Max != 100 {
		t.Errorf("merged histogram = %+v", h)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i-1].Lo >= h.Buckets[i].Lo {
			t.Errorf("merged buckets not sorted: %+v", h.Buckets)
		}
	}
}

func TestSnapshotCSV(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msgs").Add(5)
	reg.Histogram("hops").Observe(3)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kind,name,field,value", "counter,msgs,value,5", "histogram,hops,count,1"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestQuantileDegenerate(t *testing.T) {
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(7)
	}
	snap := snapshotHistogram(h)
	if q := snap.Quantile(0.99); q < 4 || q > 8 {
		t.Errorf("constant-sample quantile = %v, want ~7", q)
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1 << 40, 41}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		b := bucketOf(c.v)
		if c.v > 0 && (c.v < BucketLo(b) || c.v >= BucketHi(b)) {
			t.Errorf("value %d outside bucket [%d,%d)", c.v, BucketLo(b), BucketHi(b))
		}
	}
}

// TestNilRegistryIsNoOp drives every exported method through a nil
// *Registry and the nil metrics it hands out: instrumentation needs no
// `if reg != nil` at the call site.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	c, f, h := reg.Counter("c"), reg.Float("f"), reg.Histogram("h")
	if c != nil || f != nil || h != nil {
		t.Fatalf("nil registry created metrics: %v %v %v", c, f, h)
	}
	c.Inc()
	c.Add(5)
	f.Add(2.5)
	h.Observe(7)
	if c.Value() != 0 || f.Value() != 0 {
		t.Errorf("nil counters read %d / %v, want 0", c.Value(), f.Value())
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Errorf("nil histogram read count %d sum %d mean %v, want 0", h.Count(), h.Sum(), h.Mean())
	}

	// A span against the nil registry still measures; only the
	// observation is dropped. The zero Span has no clock and ends as 0.
	now := int64(100)
	sp := reg.Span("phase", func() int64 { return now })
	now = 130
	if d := sp.End(); d != 30 {
		t.Errorf("nil-registry span = %d, want 30", d)
	}
	if d := StartSpan(nil, func() int64 { return now }).End(); d != 0 {
		t.Errorf("nil-histogram span = %d, want 0", d)
	}
	if d := (Span{}).End(); d != 0 {
		t.Errorf("zero span = %d, want 0", d)
	}

	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Floats)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if back, err := ReadJSON(&buf); err != nil || !reflect.DeepEqual(back, snap) {
		t.Errorf("empty snapshot round trip: %+v, %v", back, err)
	}
}
