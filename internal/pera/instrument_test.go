package pera

import (
	"encoding/hex"
	"testing"

	"pera/internal/evidence"
	"pera/internal/telemetry"
)

// TestInstrumentStatsParity is the telemetry layer's no-second-books
// check: Stats() reads the same instruments a registry snapshot samples,
// so the two views must agree counter for counter.
func TestInstrumentStatsParity(t *testing.T) {
	s := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	reg := telemetry.NewRegistry()
	s.Instrument(reg)

	pol := &Policy{
		ID:    1,
		Nonce: []byte("n"),
		Obls: []Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram},
			SignEvidence: true,
			Appraiser:    "Appraiser",
		}},
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Receive(1, WrapFrame(pol, testFrame(t, s))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Attest([]byte("nonce"), evidence.DetailProgram); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	// The three frames carry one chain, so the second and third signs
	// are answered by the sign memo.
	if st.Packets != 3 || st.Attested != 3 || st.SignOps != 4 || st.SignMemoHits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	snap := reg.Snapshot()
	sw := telemetry.L("switch", "sw1")
	parity := []struct {
		metric string
		stat   uint64
	}{
		{"pera_packets_total", st.Packets},
		{"pera_attested_total", st.Attested},
		{"pera_sign_ops_total", st.SignOps},
		{"pera_sign_memo_hits_total", st.SignMemoHits},
		{"pera_evidence_bytes_total", st.EvidenceBytes},
		{"pera_inband_bytes_total", st.InBandBytes},
		{"pera_oob_msgs_total", st.OutOfBandMsgs},
		{"pera_guard_rejects_total", st.GuardRejects},
		{"pera_sample_skips_total", st.SampleSkips},
		{"pera_verify_ops_total", st.VerifyOps},
		{"pera_verify_fails_total", st.VerifyFails},
	}
	for _, p := range parity {
		if got := snap.Value(p.metric, sw); got != float64(p.stat) {
			t.Errorf("%s = %v, Stats() says %d", p.metric, got, p.stat)
		}
	}

	// Instrument armed stage timing: the Sign-stage histogram has one
	// observation per signature operation.
	m, ok := snap.Get("pera_sign_seconds", sw)
	if !ok || m.Hist == nil {
		t.Fatal("pera_sign_seconds not exported")
	}
	if m.Hist.Count != st.SignOps {
		t.Fatalf("sign histogram count = %d, want %d sign ops", m.Hist.Count, st.SignOps)
	}

	// ResetStats zeroes both views at once — same storage.
	s.ResetStats()
	if got := s.Stats(); got.Packets != 0 || got.SignOps != 0 {
		t.Fatalf("stats after reset: %+v", got)
	}
	if got := reg.Snapshot().Value("pera_packets_total", sw); got != 0 {
		t.Fatalf("registry after reset: %v", got)
	}
}

// TestUninstrumentedSwitchSkipsTiming checks the zero-overhead contract:
// without Instrument or a tracer, the packet path takes no timestamps, so
// the (unregistered but live) sign histogram stays empty while the sign
// counter still advances.
func TestUninstrumentedSwitchSkipsTiming(t *testing.T) {
	s := newSwitch(t, "sw1", Config{})
	if _, err := s.Attest([]byte("n"), evidence.DetailProgram); err != nil {
		t.Fatal(err)
	}
	if s.Stats().SignOps != 1 {
		t.Fatalf("sign ops: %d", s.Stats().SignOps)
	}
	if n := s.met.signSeconds.Sample().Hist.Count; n != 0 {
		t.Fatalf("untimed switch recorded %d sign durations", n)
	}
}

// TestSwitchTracerSpans checks flow correlation: an Attest with a nonce
// records a Sign span under the nonce-hex flow ID, and an in-band packet
// records spans under the evidence nonce.
func TestSwitchTracerSpans(t *testing.T) {
	s := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	tr := telemetry.NewFlowTracer(64)
	s.SetTracer(tr)

	nonce := []byte("challenge")
	if _, err := s.Attest(nonce, evidence.DetailProgram); err != nil {
		t.Fatal(err)
	}
	spans := tr.Flow(hex.EncodeToString(nonce))
	if len(spans) == 0 {
		t.Fatal("no spans for attest nonce flow")
	}
	sawSign := false
	for _, sp := range spans {
		if sp.Place != "sw1" {
			t.Fatalf("span place %q", sp.Place)
		}
		if sp.Stage == telemetry.StageSign {
			sawSign = true
		}
	}
	if !sawSign {
		t.Fatalf("no sign span in %+v", spans)
	}

	pol := &Policy{ID: 1, Nonce: []byte("pn"), Obls: []Obligation{{
		Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true,
	}}}
	if _, err := s.Receive(1, WrapFrame(pol, testFrame(t, s))); err != nil {
		t.Fatal(err)
	}
	if len(tr.Flow(hex.EncodeToString([]byte("pn")))) == 0 {
		t.Fatal("no spans for in-band packet flow")
	}

	// Detach: no further spans.
	s.SetTracer(nil)
	before := tr.Recorded()
	if _, err := s.Attest([]byte("post-detach"), evidence.DetailProgram); err != nil {
		t.Fatal(err)
	}
	if tr.Recorded() != before {
		t.Fatal("detached tracer still recording")
	}
}
