package telemetry

import (
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

func TestTracerRecordsAndOrders(t *testing.T) {
	tr := NewFlowTracer(8)
	for i := 0; i < 3; i++ {
		tr.RecordChild(SpanContext{}, "flow-a", "sw1", StageSign, time.Time{}, time.Duration(i), "")
	}
	if tr.Len() != 3 || tr.Recorded() != 3 {
		t.Fatalf("len=%d recorded=%d, want 3/3", tr.Len(), tr.Recorded())
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatal("spans not in recording order")
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewFlowTracer(4)
	for i := 0; i < 10; i++ {
		tr.RecordChild(SpanContext{}, "f", "p", StageVerify, time.Time{}, 0, strconv.Itoa(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("ring len = %d, want capacity 4", tr.Len())
	}
	if tr.Recorded() != 10 {
		t.Fatalf("recorded = %d, want 10 (lifetime, not ring)", tr.Recorded())
	}
	spans := tr.Spans()
	// Oldest-first: the last 4 of 10 recordings, notes "6".."9".
	for i, s := range spans {
		if want := strconv.Itoa(6 + i); s.Note != want {
			t.Fatalf("span %d note = %q, want %q (oldest-first after wrap)", i, s.Note, want)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewFlowTracer(16)

	tr.SetSampleEvery(0) // disabled
	tr.RecordChild(SpanContext{}, "any", "p", StageSign, time.Time{}, 0, "")
	if tr.Recorded() != 0 {
		t.Fatal("disabled tracer recorded a span")
	}
	if tr.Sampled("any") {
		t.Fatal("disabled tracer claims flows are sampled")
	}

	tr.SetSampleEvery(1) // everything
	if !tr.Sampled("any") {
		t.Fatal("sample-every-1 skipped a flow")
	}

	// 1-in-4: sampling is a pure hash of the flow ID, so whole flows are
	// either fully captured or fully skipped — find one of each.
	tr.SetSampleEvery(4)
	hashMod := func(flow string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(flow))
		return h.Sum32() % 4
	}
	var in, out string
	for i := 0; i < 100 && (in == "" || out == ""); i++ {
		f := "flow-" + strconv.Itoa(i)
		if hashMod(f) == 0 {
			in = f
		} else {
			out = f
		}
	}
	if in == "" || out == "" {
		t.Fatal("could not find sampled and unsampled flows")
	}
	if !tr.Sampled(in) || tr.Sampled(out) {
		t.Fatalf("Sampled disagrees with hash classes for %q/%q", in, out)
	}
	before := tr.Recorded()
	tr.RecordChild(SpanContext{}, in, "p", StageSign, time.Time{}, 0, "")
	tr.RecordChild(SpanContext{}, out, "p", StageSign, time.Time{}, 0, "")
	if tr.Recorded() != before+1 {
		t.Fatalf("recorded %d new spans, want exactly 1 (sampled flow only)", tr.Recorded()-before)
	}
}

// Property: SampledNonce decides as Sampled does on the nonce's hex
// text, and as Sampled("-") for an empty nonce, at every sampling rate.
func TestPropertySampledNonceMatchesSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var nilTracer *FlowTracer
	if nilTracer.SampledNonce([]byte("x")) {
		t.Fatal("nil tracer samples")
	}
	tr := NewFlowTracer(1)
	for _, every := range []uint32{0, 1, 2, 3, 4, 7, 8, 16, 64, 1000} {
		tr.SetSampleEvery(every)
		if got, want := tr.SampledNonce(nil), tr.Sampled("-"); got != want {
			t.Fatalf("1-in-%d, no nonce: %v, Sampled(\"-\") %v", every, got, want)
		}
		sampled := 0
		for i := 0; i < 2000; i++ {
			nonce := make([]byte, 1+rng.Intn(40))
			rng.Read(nonce)
			got, want := tr.SampledNonce(nonce), tr.Sampled(hex.EncodeToString(nonce))
			if got != want {
				t.Fatalf("1-in-%d, nonce %x: %v, Sampled %v", every, nonce, got, want)
			}
			if got {
				sampled++
			}
		}
		if every > 1 && (sampled == 0 || sampled == 2000) {
			t.Fatalf("1-in-%d sampled %d of 2000 nonces", every, sampled)
		}
	}
}

func TestTracerFlowFilter(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.RecordChild(SpanContext{}, "a", "sw1", StageSign, time.Time{}, 0, "")
	tr.RecordChild(SpanContext{}, "b", "sw1", StageSign, time.Time{}, 0, "")
	tr.RecordChild(SpanContext{}, "a", "rp", StageAppraise, time.Time{}, 0, "")
	got := tr.Flow("a")
	if len(got) != 2 || got[0].Place != "sw1" || got[1].Place != "rp" {
		t.Fatalf("Flow(a) = %+v", got)
	}
	if len(tr.Flow("missing")) != 0 {
		t.Fatal("Flow on unknown ID returned spans")
	}
}

func TestTracerInstrument(t *testing.T) {
	tr := NewFlowTracer(16)
	tr.SetSampleEvery(4)
	reg := NewRegistry()
	tr.Instrument(reg)
	tr.SetSampleEvery(1)
	tr.RecordChild(SpanContext{}, "f", "p", StageSign, time.Time{}, 0, "")
	snap := reg.Snapshot()
	if v := snap.Value("pera_trace_recorded_total"); v != 1 {
		t.Fatalf("pera_trace_recorded_total = %v, want 1", v)
	}
	if v := snap.Value("pera_trace_spans"); v != 1 {
		t.Fatalf("pera_trace_spans = %v, want 1", v)
	}
	if v := snap.Value("pera_trace_sample_every"); v != 1 {
		t.Fatalf("pera_trace_sample_every = %v, want 1 (live knob value)", v)
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewFlowTracer(0)
	tr.RecordChild(SpanContext{}, "f", "p", StageSign, time.Time{}, 0, "")
	if got := len(tr.buf); got != DefaultTraceCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTraceCapacity)
	}
}
