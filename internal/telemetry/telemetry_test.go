package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestCounterAddAndValue(t *testing.T) {
	c := NewCounter("pera_packets_total", L("switch", "sw1"))
	for i := 0; i < 100; i++ {
		c.Inc()
	}
	c.Add(17)
	if got := c.Value(); got != 117 {
		t.Fatalf("counter value = %d, want 117", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("counter value after reset = %d, want 0", got)
	}
}

func TestGaugeSetAddValue(t *testing.T) {
	g := NewGauge("pera_pool_queue_depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after add = %v, want 2", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	// Every instrument method must tolerate a nil receiver so optional
	// instrumentation needs no call-site guards.
	var c *Counter
	c.Add(1)
	c.Inc()
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Time{})
	var tr *FlowTracer
	tr.SetSampleEvery(1)
	tr.RecordChild(SpanContext{}, "f", "p", StageSign, time.Time{}, 0, "")
	if tr.Sampled("f") || tr.Len() != 0 || tr.Recorded() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer not inert")
	}
	tr.Instrument(nil)
	var r *Registry
	r.Register(NewCounter("x"))
	r.RegisterFunc("y", KindGauge, func() float64 { return 0 })
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", n)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("pera_packets_total", L("switch", "sw1"))
	b := reg.Counter("pera_packets_total", L("switch", "sw1"))
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	other := reg.Counter("pera_packets_total", L("switch", "sw2"))
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	h1 := reg.Histogram("pera_sign_seconds", nil)
	h2 := reg.Histogram("pera_sign_seconds", nil)
	if h1 != h2 {
		t.Fatal("same identity returned distinct histograms")
	}
}

func TestRegistryReplaceOnRegister(t *testing.T) {
	// Harness sweeps re-create components run over run; registering an
	// instrument with an existing identity must replace the old one so a
	// live endpoint shows the current generation.
	reg := NewRegistry()
	old := NewCounter("pera_packets_total", L("switch", "sw1"))
	old.Add(99)
	reg.Register(old)
	fresh := NewCounter("pera_packets_total", L("switch", "sw1"))
	fresh.Add(1)
	reg.Register(fresh)
	snap := reg.Snapshot()
	if len(snap.Metrics) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap.Metrics))
	}
	if got := snap.Value("pera_packets_total", L("switch", "sw1")); got != 1 {
		t.Fatalf("replaced counter reads %v, want 1 (the fresh generation)", got)
	}
}

func TestRegisterFuncLazyEvaluation(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.RegisterFunc("pera_cache_entries", KindGauge, func() float64 {
		calls++
		return 42
	})
	if calls != 0 {
		t.Fatal("func metric evaluated at registration")
	}
	if got := reg.Snapshot().Value("pera_cache_entries"); got != 42 {
		t.Fatalf("func metric = %v, want 42", got)
	}
	if calls != 1 {
		t.Fatalf("func metric evaluated %d times for one snapshot", calls)
	}
}

func TestSnapshotSortedAndQueryable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zzz_total").Add(1)
	reg.Counter("aaa_total").Add(2)
	reg.Counter("mmm_total", L("b", "2")).Add(3)
	reg.Counter("mmm_total", L("b", "1")).Add(4)
	snap := reg.Snapshot()
	var prev string
	for _, m := range snap.Metrics {
		id := m.Name + labelString(m.Labels)
		if id < prev {
			t.Fatalf("snapshot not sorted: %q after %q", id, prev)
		}
		prev = id
	}
	if v := snap.Value("mmm_total", L("b", "1")); v != 4 {
		t.Fatalf("labelled lookup = %v, want 4", v)
	}
	if _, ok := snap.Get("absent_total"); ok {
		t.Fatal("lookup of absent metric succeeded")
	}
}

func TestLabelStringCanonical(t *testing.T) {
	// Label order must not affect identity, and values are escaped.
	a := labelString([]Label{L("b", "2"), L("a", "1")})
	b := labelString([]Label{L("a", "1"), L("b", "2")})
	if a != b {
		t.Fatalf("label order changed identity: %q vs %q", a, b)
	}
	if want := `{a="1",b="2"}`; a != want {
		t.Fatalf("labelString = %q, want %q", a, want)
	}
	if got := labelString([]Label{L("q", `sa"y`)}); got != `{q="sa\"y"}` {
		t.Fatalf("quote escaping: %q", got)
	}
	if got := labelString(nil); got != "" {
		t.Fatalf("empty labels render %q", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram("lat", []float64{0.25, 1})
	h.Observe(0.0625) // first bucket
	h.Observe(0.5)    // second bucket
	h.Observe(5)      // overflow (+Inf)
	hs := h.snapshot()
	if hs.Count != 3 {
		t.Fatalf("count = %d, want 3", hs.Count)
	}
	if hs.Sum != 5.5625 {
		t.Fatalf("sum = %v, want 5.5625", hs.Sum)
	}
	wantCum := []uint64{1, 2, 3}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative count = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(hs.Buckets[2].UpperBound, 1) {
		t.Fatal("last bucket is not +Inf")
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram("lat", []float64{10, 20})
	for i := 0; i < 10; i++ {
		h.Observe(5) // all in the (0,10] bucket
	}
	hs := h.snapshot()
	// rank 5 of 10 falls halfway through a bucket spanning [0,10].
	if q := hs.Quantile(0.5); q != 5 {
		t.Fatalf("p50 = %v, want 5 (midpoint of first bucket)", q)
	}
	// An observation in the +Inf bucket reports the last finite bound.
	h2 := NewHistogram("lat2", []float64{10})
	h2.Observe(1e9)
	if q := h2.snapshot().Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile = %v, want lower edge 10", q)
	}
	// Empty histogram quantiles are zero, not NaN.
	if q := NewHistogram("lat3", nil).snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestHistogramSnapshotQuantileFields(t *testing.T) {
	h := NewHistogram("lat", nil) // default duration buckets
	for i := 0; i < 1000; i++ {
		h.Observe(0.001)
	}
	hs := h.snapshot()
	if hs.P50 <= 0 || hs.P95 <= 0 || hs.P99 <= 0 {
		t.Fatalf("quantile fields not populated: p50=%v p95=%v p99=%v", hs.P50, hs.P95, hs.P99)
	}
	if hs.P50 > hs.P95 || hs.P95 > hs.P99 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", hs.P50, hs.P95, hs.P99)
	}
}

func TestDurationBucketsSorted(t *testing.T) {
	for i := 1; i < len(DurationBuckets); i++ {
		if DurationBuckets[i] <= DurationBuckets[i-1] {
			t.Fatalf("DurationBuckets not ascending at %d", i)
		}
	}
}
