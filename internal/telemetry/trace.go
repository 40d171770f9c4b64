package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names the RATS pipeline step a span belongs to, mirroring the
// paper's Fig. 3 switch stages plus the off-switch appraisal half.
type Stage string

const (
	StageSign       Stage = "sign"        // RoT/remote signature over evidence
	StageEvidence   Stage = "evidence"    // claim/measurement creation
	StageCompose    Stage = "compose"     // chaining local evidence onto the header chain
	StageCacheHit   Stage = "cache_hit"   // high-inertia evidence served from cache
	StageCacheMiss  Stage = "cache_miss"  // evidence rebuilt on cache miss
	StageVerify     Stage = "verify"      // signature/quote chain verification
	StageVerifyFail Stage = "verify_fail" // frame dropped for an unverifiable chain
	StageAppraise   Stage = "appraise"    // full appraisal of a chain
	StageVerdict    Stage = "verdict"     // appraisal outcome (note carries PASS/FAIL)

	StageHop       Stage = "hop"       // whole-pipeline span of one switch hop
	StageAttest    Stage = "attest"    // attester servicing one RATS challenge
	StageChallenge Stage = "challenge" // relying party's challenge round trip
	StageAppraisal Stage = "appraisal" // relying party's appraise round trip
	StageProbe     Stage = "probe"     // freshness re-attestation probe (full loop)

	StageGuardReject Stage = "guard_reject" // obligation skipped by a failed ▶ test (a point: no span)
	StageSampleSkip  Stage = "sample_skip"  // obligation skipped by the Fig. 4 sampler (a point: no span)
)

// Span is one recorded pipeline step. Flow correlation (nonce hex or
// flow hash) is kept for filtering; causality is carried by the trace
// triplet: every span belongs to a trace (TraceID, derived
// deterministically from the flow so independent processes agree),
// has its own SpanID, and names its parent span — across process
// boundaries the parent ID arrives in the rats trace-context field.
type Span struct {
	Seq      uint64        `json:"seq"`
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Flow     string        `json:"flow"`
	Place    string        `json:"place"`
	Stage    Stage         `json:"stage"`
	Start    int64         `json:"start_ns"` // wall clock, unix nanoseconds
	Dur      time.Duration `json:"dur_ns"`
	Note     string        `json:"note,omitempty"`
}

// End returns the span's wall-clock end instant in unix nanoseconds.
func (s *Span) End() int64 { return s.Start + int64(s.Dur) }

// SpanContext identifies one span for parenting — the in-process form
// of the rats wire trace context. The zero value means "no context":
// spans recorded under it become trace roots.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// TraceIDFromFlow derives the 16-byte (32 hex char) trace ID for a
// flow. The derivation is a pure hash of the flow string, so the
// attester, the appraiser, the audit ledger and the observatory —
// in separate processes, on either end of a socket — all compute the
// same trace ID for the same challenge nonce without coordination.
func TraceIDFromFlow(flow string) string {
	h := fnv.New128a()
	h.Write([]byte("pera-trace:"))
	h.Write([]byte(flow))
	var sum [16]byte
	h.Sum(sum[:0])
	return hex.EncodeToString(sum[:])
}

// Span IDs must be unique across the processes that contribute to one
// trace, so the high half is a per-process random salt and the low
// half a process-local counter.
var (
	spanSalt    uint64
	spanCounter atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		spanSalt = binary.BigEndian.Uint64(b[:]) &^ 0xffffffff
	} else {
		spanSalt = 0x5eed0000_00000000
	}
}

// NewSpanID mints a process-unique 8-byte (16 hex char) span ID.
func NewSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], spanSalt|uint64(uint32(spanCounter.Add(1))))
	return hex.EncodeToString(b[:])
}

// FlowTracer records spans into a bounded ring buffer with flow-level
// sampling — the paper's Fig. 4 "Detail" axis applied to observability:
// tracing every packet is per-packet detail, sampling 1-in-N trades
// detail for overhead. All methods are nil-safe so instrumented code
// paths need no tracer guards.
type FlowTracer struct {
	sampleEvery atomic.Uint32 // 1 = every flow, N = flows whose hash%N==0, 0 = disabled
	recorded    atomic.Uint64
	seq         atomic.Uint64

	mu   sync.Mutex
	buf  []Span
	next int  // ring write cursor
	full bool // buffer has wrapped
}

// DefaultTraceCapacity bounds a tracer built with capacity <= 0.
const DefaultTraceCapacity = 4096

// NewFlowTracer returns a tracer holding the last capacity spans,
// sampling every flow until SetSampleEvery changes the knob.
func NewFlowTracer(capacity int) *FlowTracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &FlowTracer{buf: make([]Span, capacity)}
	t.sampleEvery.Store(1)
	return t
}

// SetSampleEvery sets the sampling knob: 1 records every flow, n > 1
// records flows whose hash falls in one of n classes, 0 disables
// recording entirely.
func (t *FlowTracer) SetSampleEvery(n uint32) {
	if t == nil {
		return
	}
	t.sampleEvery.Store(n)
}

// SampleEvery returns the live sampling knob value.
func (t *FlowTracer) SampleEvery() uint32 {
	if t == nil {
		return 0
	}
	return t.sampleEvery.Load()
}

// Sampled reports whether spans for this flow would be recorded. The
// decision is a pure hash of the flow ID, so every stage of a sampled
// flow is captured end to end (sampling whole flows, not random spans)
// — and, because it depends on nothing process-local, both ends of a
// connection carrying the flow's nonce make the same decision.
func (t *FlowTracer) Sampled(flow string) bool {
	if t == nil {
		return false
	}
	n := t.sampleEvery.Load()
	switch {
	case n == 0:
		return false
	case n == 1:
		return true
	}
	h := fnv.New32a()
	h.Write([]byte(flow))
	return h.Sum32()%n == 0
}

// SampledNonce is Sampled for the flow ID that is nonce's hex text, or
// "-" when nonce is empty — the IDs appraisals and in-band hops carry —
// hashing the hex digits as it goes instead of building the text.
func (t *FlowTracer) SampledNonce(nonce []byte) bool {
	if t == nil {
		return false
	}
	n := t.sampleEvery.Load()
	switch {
	case n == 0:
		return false
	case n == 1:
		return true
	}
	const (
		digits   = "0123456789abcdef"
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	if len(nonce) == 0 {
		h = (h ^ '-') * prime32
	}
	for _, b := range nonce {
		h = (h ^ uint32(digits[b>>4])) * prime32
		h = (h ^ uint32(digits[b&15])) * prime32
	}
	return h%n == 0
}

// NewContext allocates a root span context for a sampled flow: the
// trace ID is derived from the flow, the span ID freshly minted. For
// unsampled flows (or a nil tracer) it returns the zero context, so
// downstream RecordSpan calls become no-ops.
func (t *FlowTracer) NewContext(flow string) SpanContext {
	if t == nil || !t.Sampled(flow) {
		return SpanContext{}
	}
	return SpanContext{TraceID: TraceIDFromFlow(flow), SpanID: NewSpanID()}
}

// ChildContext allocates a context under parent. When the parent is
// empty (no propagated context), the child roots a new trace derived
// from the flow — the cross-process joins still line up because the
// trace ID derivation is deterministic.
func (t *FlowTracer) ChildContext(parent SpanContext, flow string) SpanContext {
	if t == nil || !t.Sampled(flow) {
		return SpanContext{}
	}
	tid := parent.TraceID
	if tid == "" {
		tid = TraceIDFromFlow(flow)
	}
	return SpanContext{TraceID: tid, SpanID: NewSpanID()}
}

// RecordChild records a span under parent and returns its context so
// further children can nest. start may be zero (stamped now).
func (t *FlowTracer) RecordChild(parent SpanContext, flow, place string, stage Stage, start time.Time, dur time.Duration, note string) SpanContext {
	ctx := t.ChildContext(parent, flow)
	if !ctx.Valid() {
		return SpanContext{}
	}
	t.push(ctx, parent, flow, place, stage, start, dur, note)
	return ctx
}

// RecordSpan records a span with a pre-allocated context (NewContext /
// ChildContext) and its parent. Spans under an invalid context are
// dropped — the unsampled-flow fast path.
func (t *FlowTracer) RecordSpan(ctx, parent SpanContext, flow, place string, stage Stage, start time.Time, dur time.Duration, note string) {
	if t == nil || !ctx.Valid() {
		return
	}
	t.push(ctx, parent, flow, place, stage, start, dur, note)
}

// push is the single ring writer.
func (t *FlowTracer) push(ctx, parent SpanContext, flow, place string, stage Stage, start time.Time, dur time.Duration, note string) {
	if start.IsZero() {
		start = time.Now()
	}
	s := Span{
		Seq: t.seq.Add(1), TraceID: ctx.TraceID, SpanID: ctx.SpanID,
		ParentID: parent.SpanID, Flow: flow, Place: place, Stage: stage,
		Start: start.UnixNano(), Dur: dur, Note: note,
	}
	t.recorded.Add(1)
	t.mu.Lock()
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Spans returns the buffered spans, oldest first.
func (t *FlowTracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.buf[:t.next]...)
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Flow returns the buffered spans for one flow ID, oldest first.
func (t *FlowTracer) Flow(flow string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Flow == flow {
			out = append(out, s)
		}
	}
	return out
}

// Trace returns the buffered spans belonging to one trace ID, oldest
// first.
func (t *FlowTracer) Trace(traceID string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// Len returns the number of buffered spans.
func (t *FlowTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Recorded returns the total spans recorded over the tracer's lifetime
// (including those since evicted from the ring).
func (t *FlowTracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// Instrument publishes the tracer's own health as lazy metrics.
func (t *FlowTracer) Instrument(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.RegisterFunc("pera_trace_spans", KindGauge, func() float64 { return float64(t.Len()) })
	reg.RegisterFunc("pera_trace_recorded_total", KindCounter, func() float64 { return float64(t.Recorded()) })
	reg.RegisterFunc("pera_trace_sample_every", KindGauge, func() float64 { return float64(t.sampleEvery.Load()) })
}
