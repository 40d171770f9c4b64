package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func testTraceSpans() []Span {
	base := int64(1_000_000_000_000)
	return []Span{
		{Seq: 1, TraceID: "t1", SpanID: "root", Flow: "f1", Place: "rp", Stage: StageChallenge,
			Start: base, Dur: 10 * time.Millisecond},
		{Seq: 2, TraceID: "t1", SpanID: "att", ParentID: "root", Flow: "f1", Place: "sw1",
			Stage: StageAttest, Start: base + 1e6, Dur: 4 * time.Millisecond},
		{Seq: 3, TraceID: "t1", SpanID: "sig", ParentID: "att", Flow: "f1", Place: "sw1",
			Stage: StageSign, Start: base + 2e6, Dur: 2 * time.Millisecond},
		{Seq: 4, TraceID: "t1", SpanID: "app", ParentID: "root", Flow: "f1", Place: "Appraiser",
			Stage: StageAppraise, Start: base + 6e6, Dur: 3 * time.Millisecond},
	}
}

func TestMergeSpansDedupes(t *testing.T) {
	spans := testTraceSpans()
	// Two endpoints returned overlapping views, out of order.
	merged := MergeSpans(spans[2:], spans[:3], []Span{spans[3]})
	if len(merged) != 4 {
		t.Fatalf("merged %d spans, want 4: %+v", len(merged), merged)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Start < merged[i-1].Start {
			t.Fatalf("not chronological: %+v", merged)
		}
	}
}

func TestRenderTraceTreeAndCriticalPath(t *testing.T) {
	var buf bytes.Buffer
	if n := RenderTrace(&buf, MergeSpans(testTraceSpans())); n != 4 {
		t.Fatalf("rendered %d spans", n)
	}
	out := buf.String()
	for _, want := range []string{
		"trace t1  flow f1",
		"rp/challenge",
		"sw1/attest",
		"sw1/sign",
		"Appraiser/appraise",
		"critical path",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Children indent under their parents: sign is one level deeper
	// than attest.
	attLine, sigLine := "", ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "sw1/attest") {
			attLine = line
		}
		if strings.Contains(line, "sw1/sign") {
			sigLine = line
		}
	}
	if strings.Index(sigLine, "sw1") <= strings.Index(attLine, "sw1") {
		t.Fatalf("sign not nested under attest:\n%s", out)
	}
	// The critical path runs root → appraise (finished last), never
	// through sign.
	cp := out[strings.Index(out, "critical path"):]
	if !strings.Contains(cp, "Appraiser/appraise") || strings.Contains(cp, "sw1/sign") {
		t.Fatalf("critical path wrong:\n%s", cp)
	}
}

func TestRenderTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if n := RenderTrace(&buf, nil); n != 0 || !strings.Contains(buf.String(), "no spans") {
		t.Fatalf("empty render: %d %q", n, buf.String())
	}
}

func TestRenderTraceOrphanBecomesRoot(t *testing.T) {
	spans := []Span{{Seq: 1, TraceID: "t1", SpanID: "x", ParentID: "gone", Flow: "f",
		Place: "p", Stage: StageHop, Start: 1, Dur: time.Millisecond}}
	var buf bytes.Buffer
	if n := RenderTrace(&buf, spans); n != 1 {
		t.Fatalf("rendered %d", n)
	}
	if !strings.Contains(buf.String(), "p/hop") {
		t.Fatalf("orphan not rendered:\n%s", buf.String())
	}
}
