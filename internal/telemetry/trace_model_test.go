package telemetry

// Tests for the distributed-trace span model: deterministic trace-ID
// derivation, span-ID uniqueness, causal parenting through the
// RecordChild/RecordSpan API, OTLP-JSON export shape, and histogram
// exemplars.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDDeterministicAndDistinct(t *testing.T) {
	a, b := TraceIDFromFlow("flow-a"), TraceIDFromFlow("flow-a")
	if a != b {
		t.Fatalf("same flow, different trace IDs: %s %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("trace ID %q: want 32 hex chars", a)
	}
	if TraceIDFromFlow("flow-b") == a {
		t.Fatal("distinct flows collided")
	}
}

func TestSpanIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := NewSpanID()
		if len(id) != 16 {
			t.Fatalf("span ID %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestChildContextDerivesTraceFromFlow(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(1)
	// Zero parent: the child roots a trace derived from the flow, so
	// independent processes converge on the same trace.
	c := tr.ChildContext(SpanContext{}, "f1")
	if c.TraceID != TraceIDFromFlow("f1") {
		t.Fatalf("root child trace %s, want flow-derived %s", c.TraceID, TraceIDFromFlow("f1"))
	}
	// Valid parent: the child inherits the parent's trace verbatim.
	parent := SpanContext{TraceID: "abc", SpanID: "def"}
	if c := tr.ChildContext(parent, "f1"); c.TraceID != "abc" {
		t.Fatalf("child trace %s, want inherited abc", c.TraceID)
	}
	// Nil tracer and unsampled flows yield the zero context.
	var nilTr *FlowTracer
	if c := nilTr.ChildContext(parent, "f1"); c.Valid() {
		t.Fatal("nil tracer minted a context")
	}
}

func TestRecordSpanTree(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(1)
	root := tr.NewContext("f1")
	child := tr.RecordChild(root, "f1", "sw1", StageVerify, time.Now(), time.Millisecond, "")
	if !child.Valid() {
		t.Fatal("sampled RecordChild returned zero context")
	}
	tr.RecordSpan(root, SpanContext{}, "f1", "rp", StageChallenge, time.Now(), 2*time.Millisecond, "")

	spans := tr.Trace(root.TraceID)
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(spans))
	}
	if spans[0].ParentID != root.SpanID || spans[0].SpanID != child.SpanID {
		t.Fatalf("child span: %+v", spans[0])
	}
	if spans[1].ParentID != "" || spans[1].SpanID != root.SpanID {
		t.Fatalf("root span: %+v", spans[1])
	}
	if spans[0].Start <= 0 || spans[0].End() != spans[0].Start+int64(spans[0].Dur) {
		t.Fatalf("span clock: %+v", spans[0])
	}
}

func TestRecordSpanDropsInvalidContext(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(1)
	tr.RecordSpan(SpanContext{}, SpanContext{}, "f1", "p", StageVerify, time.Now(), 0, "")
	if got := tr.Len(); got != 0 {
		t.Fatalf("invalid-context span recorded: %d", got)
	}
	// Unsampled flows mint no child context and record nothing.
	tr.SetSampleEvery(1 << 30)
	unsampled := ""
	for i := 0; i < 4096; i++ {
		f := string(rune('a'+i%26)) + string(rune('0'+i%10))
		if !tr.Sampled(f) {
			unsampled = f
			break
		}
	}
	if unsampled == "" {
		t.Skip("no unsampled flow found")
	}
	if c := tr.RecordChild(SpanContext{}, unsampled, "p", StageVerify, time.Now(), 0, ""); c.Valid() {
		t.Fatal("unsampled RecordChild minted a context")
	}
	if got := tr.Len(); got != 0 {
		t.Fatalf("unsampled span recorded: %d", got)
	}
}

func TestOTLPExportShape(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(1)
	root := tr.NewContext("f1")
	tr.RecordSpan(root, SpanContext{}, "f1", "rp", StageChallenge, time.Now(), time.Millisecond, "note")

	var buf bytes.Buffer
	if err := WriteOTLP(&buf, "pera-test", tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("OTLP output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("OTLP shape: %s", buf.String())
	}
	res := doc.ResourceSpans[0]
	if res.Resource.Attributes[0].Key != "service.name" ||
		res.Resource.Attributes[0].Value.StringValue != "pera-test" {
		t.Fatalf("resource attrs: %+v", res.Resource.Attributes)
	}
	spans := res.ScopeSpans[0].Spans
	if len(spans) != 1 {
		t.Fatalf("spans: %+v", spans)
	}
	sp := spans[0]
	if sp.TraceID != root.TraceID || sp.SpanID == "" || sp.ParentSpanID != "" {
		t.Fatalf("span IDs: %+v", sp)
	}
	if sp.Name != "rp/challenge" {
		t.Fatalf("span name %q", sp.Name)
	}
	// OTLP-JSON requires uint64 nanos as STRINGS.
	if sp.Start == "" || sp.End == "" || sp.Start >= sp.End {
		t.Fatalf("span times: %+v", sp)
	}
}

func TestOTLPSkipsLegacySpans(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(1)
	tr.RecordChild(SpanContext{}, "f1", "sw1", StageSign, time.Time{}, time.Millisecond, "") // roots its own trace
	tr.RecordSpan(SpanContext{}, SpanContext{}, "", "", StageSign, time.Time{}, 0, "")
	spans := append(tr.Spans(), Span{Flow: "f2", Place: "x", Stage: StageSign}) // no IDs at all
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, "svc", spans); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"traceId"`)); n != 1 {
		t.Fatalf("exported %d spans, want 1 (a rooted span keeps its IDs, ID-less spans are skipped)\n%s", n, buf.String())
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.Init("pera_test_seconds", []float64{0.001, 0.01, 0.1}, nil)
	h.ObserveExemplar(0.005, "deadbeefdeadbeefdeadbeefdeadbeef")
	h.ObserveExemplar(0.05, "") // no trace: counted, no exemplar
	snap := h.snapshot()
	if snap.Count != 2 {
		t.Fatalf("count %d", snap.Count)
	}
	if len(snap.Exemplars) != 1 {
		t.Fatalf("exemplars: %+v", snap.Exemplars)
	}
	ex := snap.Exemplars[0]
	if ex.Bucket != 1 || ex.TraceID != "deadbeefdeadbeefdeadbeefdeadbeef" || ex.Value != 0.005 || ex.TS == 0 {
		t.Fatalf("exemplar: %+v", ex)
	}
	// Newer exemplar for the same bucket wins.
	h.ObserveExemplar(0.002, "beadfacebeadfacebeadfacebeadface")
	snap = h.snapshot()
	if len(snap.Exemplars) != 1 || snap.Exemplars[0].TraceID != "beadfacebeadfacebeadfacebeadface" {
		t.Fatalf("exemplar not replaced: %+v", snap.Exemplars)
	}
}

func TestPromExemplarRendering(t *testing.T) {
	reg := NewRegistry()
	m := reg.Histogram("pera_test_seconds", []float64{0.001, 1})
	m.ObserveExemplar(0.0005, "cafe0000000000000000000000000000")
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `pera_test_seconds_bucket{le="0.001"} 1 # {trace_id="cafe0000000000000000000000000000"} 0.0005`
	if !strings.Contains(out, want) {
		t.Fatalf("exemplar line missing:\nwant substring %q\ngot:\n%s", want, out)
	}
	// Buckets without exemplars render exactly as before.
	if !strings.Contains(out, "pera_test_seconds_bucket{le=\"1\"} 1\n") {
		t.Fatalf("plain bucket line changed:\n%s", out)
	}
}

func TestTraceFilter(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(1)
	r1 := tr.NewContext("f1")
	r2 := tr.NewContext("f2")
	tr.RecordSpan(r1, SpanContext{}, "f1", "p", StageVerify, time.Now(), 0, "")
	tr.RecordSpan(r2, SpanContext{}, "f2", "p", StageVerify, time.Now(), 0, "")
	if got := tr.Trace(r1.TraceID); len(got) != 1 || got[0].Flow != "f1" {
		t.Fatalf("trace filter: %+v", got)
	}
	if got := tr.Trace("ffff"); len(got) != 0 {
		t.Fatalf("unknown trace: %+v", got)
	}
}
