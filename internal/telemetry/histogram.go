package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// DurationBuckets is the default bound set for latency histograms:
// exponential powers of two from 1µs to ~2s. Attestation stage costs
// span hash-only cache hits (microseconds) to full chain verification
// (milliseconds), so a factor-2 ladder resolves both ends.
var DurationBuckets = func() []float64 {
	bounds := make([]float64, 22)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}()

// histStripe is one stripe of a histogram: bucket counts plus count/sum.
// Each stripe is written by roughly 1/numStripes of concurrent observers.
type histStripe struct {
	buckets []atomic.Uint64 // one per bound, plus a final overflow bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func (s *histStripe) addSum(v float64) {
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a bounded histogram over fixed bucket bounds with striped
// atomic storage. Observations beyond the last bound land in an implicit
// +Inf bucket. Construct via NewHistogram or Registry.Histogram.
type Histogram struct {
	desc
	bounds  []float64
	stripes [numStripes]histStripe
	// exemplars holds, per bucket, the most recent observation that
	// carried a trace ID — the bridge from a latency bucket in /metrics
	// to a concrete trace in /trace. Written only on sampled flows.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one recent observation to the trace that produced it.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
	TS      int64   `json:"ts_ns"` // observation wall clock, unix nanoseconds
}

// NewHistogram builds a standalone histogram over bounds (which must be
// sorted ascending; nil selects DurationBuckets).
func NewHistogram(name string, bounds []float64, labels ...Label) *Histogram {
	h := &Histogram{}
	h.Init(name, bounds, labels)
	return h
}

// Init initializes a zero histogram in place — NewHistogram without the
// struct allocation, for by-value metric bundles (a switch embeds its
// whole instrument set in one struct). The labels slice is retained.
func (h *Histogram) Init(name string, bounds []float64, labels []Label) {
	if bounds == nil {
		bounds = DurationBuckets
	}
	bounds = append([]float64(nil), bounds...)
	h.desc = desc{name: name, labels: labels, kind: KindHistogram}
	h.bounds = bounds
	// One backing array for all stripes, with the per-stripe run rounded
	// up to a full cache line of counters so stripes don't share lines.
	stride := (len(bounds) + 1 + 7) &^ 7
	backing := make([]atomic.Uint64, numStripes*stride)
	for i := range h.stripes {
		h.stripes[i].buckets = backing[i*stride : i*stride+len(bounds)+1]
	}
	h.exemplars = make([]atomic.Pointer[Exemplar], len(bounds)+1)
}

// Observe records one value. Nil-safe: optional instrumentation can hold
// a nil *Histogram and observe unconditionally.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// sort.SearchFloat64s returns the first bound >= v's insertion point;
	// values above every bound land in the overflow slot.
	b := sort.SearchFloat64s(h.bounds, v)
	s := &h.stripes[stripeIdx()]
	s.buckets[b].Add(1)
	s.count.Add(1)
	s.addSum(v)
}

// ObserveSince records the elapsed time since start, in seconds. A zero
// start is ignored, so disabled timing paths can call it unconditionally.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// ObserveExemplar records one value and, when traceID is non-empty,
// pins it as the bucket's exemplar. Unsampled flows pass "" and pay
// only the plain Observe cost.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	b := sort.SearchFloat64s(h.bounds, v)
	s := &h.stripes[stripeIdx()]
	s.buckets[b].Add(1)
	s.count.Add(1)
	s.addSum(v)
	if traceID != "" {
		h.exemplars[b].Store(&Exemplar{Value: v, TraceID: traceID, TS: time.Now().UnixNano()})
	}
}

// BucketCount is one histogram bucket in a snapshot. Count is the number
// of observations <= UpperBound (cumulative, Prometheus-style).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// bucketCountJSON carries a bucket through JSON with the bound as a
// string: the final bucket's bound is +Inf, which bare JSON numbers
// cannot represent.
type bucketCountJSON struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON encodes the bound as "+Inf" or its shortest decimal form.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketCountJSON{LE: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw bucketCountJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if raw.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
		return nil
	}
	f, err := strconv.ParseFloat(raw.LE, 64)
	if err != nil {
		return err
	}
	b.UpperBound = f
	return nil
}

// HistSnapshot is a merged view of all stripes.
type HistSnapshot struct {
	Buckets []BucketCount `json:"buckets"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	// Exemplars maps bucket index (into Buckets) to that bucket's
	// latest trace-linked observation. Absent unless exemplars were
	// recorded, so snapshots without tracing are unchanged.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// BucketExemplar pairs an exemplar with its bucket index.
type BucketExemplar struct {
	Bucket int `json:"bucket"`
	Exemplar
}

// snapshot merges the stripes into cumulative buckets and quantiles.
func (h *Histogram) snapshot() *HistSnapshot {
	raw := make([]uint64, len(h.bounds)+1)
	out := &HistSnapshot{}
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := range raw {
			raw[b] += s.buckets[b].Load()
		}
		out.Count += s.count.Load()
		out.Sum += math.Float64frombits(s.sumBits.Load())
	}
	out.Buckets = make([]BucketCount, len(h.bounds)+1)
	var cum uint64
	for b, bound := range h.bounds {
		cum += raw[b]
		out.Buckets[b] = BucketCount{UpperBound: bound, Count: cum}
	}
	cum += raw[len(h.bounds)]
	out.Buckets[len(h.bounds)] = BucketCount{UpperBound: math.Inf(1), Count: cum}
	for b := range h.exemplars {
		if ex := h.exemplars[b].Load(); ex != nil {
			out.Exemplars = append(out.Exemplars, BucketExemplar{Bucket: b, Exemplar: *ex})
		}
	}
	out.P50 = out.Quantile(0.50)
	out.P95 = out.Quantile(0.95)
	out.P99 = out.Quantile(0.99)
	return out
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the containing bucket — the usual bounded-histogram estimate:
// exact bucket membership, interpolated position inside it.
func (hs *HistSnapshot) Quantile(q float64) float64 {
	if hs == nil || hs.Count == 0 {
		return 0
	}
	rank := q * float64(hs.Count)
	var prevCum uint64
	lower := 0.0
	for _, b := range hs.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				// Open-ended bucket: report its lower edge rather than
				// inventing a value beyond the largest bound.
				return lower
			}
			in := b.Count - prevCum
			if in == 0 {
				return b.UpperBound
			}
			frac := (rank - float64(prevCum)) / float64(in)
			return lower + frac*(b.UpperBound-lower)
		}
		prevCum = b.Count
		if !math.IsInf(b.UpperBound, 1) {
			lower = b.UpperBound
		}
	}
	return lower
}

// Sample implements Instrument. Labels are shared as in Counter.Sample.
func (h *Histogram) Sample() MetricSnapshot {
	return MetricSnapshot{Name: h.name, Labels: h.labels, Kind: KindHistogram, Type: KindHistogram.String(), Hist: h.snapshot(), ls: h.ls}
}
