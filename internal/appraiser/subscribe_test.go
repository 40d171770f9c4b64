package appraiser

import (
	"encoding/hex"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"pera/internal/evidence"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/rats"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// endedSink keeps every stage end it is fed.
type endedSink struct {
	mu    sync.Mutex
	ended []telemetry.StageEvent
}

func (s *endedSink) StageOpened(telemetry.StageEvent) {}

func (s *endedSink) StageEnded(ev telemetry.StageEvent) {
	s.mu.Lock()
	s.ended = append(s.ended, ev)
	s.mu.Unlock()
}

// TestSubscribeFeedsEverySink: each subscribed sink sees one appraise
// end per appraisal, all with the same verdict, provenance and verified
// signers. A
// replayed nonce reaches them with Err set, and the collector and the
// watchdog, which read only rendered verdicts, do not count it.
func TestSubscribeFeedsEverySink(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	s1, s2 := &endedSink{}, &endedSink{}
	col := observatory.New("collector")
	wd := freshness.New("watchdog", freshness.Config{})
	for _, s := range []telemetry.StageSink{s1, wd, col, s2} {
		a.Subscribe(s)
	}

	rogue := evidence.Sign(r, evidence.Seq(
		evidence.Measurement("attest", "firewall_v5.p4", "sw1", evidence.DetailProgram, rot.Sum([]byte("rogue-bytes")), nil),
		evidence.Nonce([]byte("n2"))))
	if c, err := a.Appraise("path", goodEvidence(r, []byte("n1")), []byte("n1")); err != nil || !c.Verdict {
		t.Fatalf("good evidence: %+v, %v", c, err)
	}
	if c, err := a.Appraise("path", rogue, []byte("n2")); err != nil || c.Verdict {
		t.Fatalf("rogue evidence: %+v, %v", c, err)
	}
	colBefore, wdBefore := col.Snapshot(), wd.Coverage()
	if colBefore.Verdicts != 2 {
		t.Fatalf("collector counted %d verdicts, want 2", colBefore.Verdicts)
	}
	if len(wdBefore.Places) != 1 || wdBefore.Places[0].Place != "sw1" || wdBefore.Places[0].Fails != 1 {
		t.Fatalf("watchdog rows: %+v", wdBefore.Places)
	}
	if _, err := a.Appraise("path", rogue, []byte("n2")); !errors.Is(err, ErrNonceReplayed) {
		t.Fatalf("replay: %v", err)
	}

	for _, s := range []*endedSink{s1, s2} {
		if len(s.ended) != 3 {
			t.Fatalf("sink saw %d appraisals, want 3", len(s.ended))
		}
		for _, ev := range s.ended {
			if ev.Stage != telemetry.StageAppraise || ev.Target != "path" {
				t.Fatalf("sink saw %s of %q, want the appraise envelope", ev.Stage, ev.Target)
			}
		}
	}
	if !reflect.DeepEqual(s1.ended, s2.ended) {
		t.Fatalf("sinks disagree:\n%+v\n%+v", s1.ended, s2.ended)
	}
	pass, fail, replay := s1.ended[0], s1.ended[1], s1.ended[2]
	sw1 := []string{"sw1"}
	if pass.Verdict != "PASS" || pass.Err != "" || pass.Prov.Stage != "accept" || !reflect.DeepEqual(pass.Signers, sw1) {
		t.Fatalf("pass: %+v", pass)
	}
	if fail.Verdict != "FAIL" || fail.Err != "" || fail.Prov.Place != "sw1" || fail.Prov.Stage != "golden" || !reflect.DeepEqual(fail.Signers, sw1) {
		t.Fatalf("fail: %+v", fail)
	}
	if replay.Err != ErrNonceReplayed.Error() || replay.Prov.Stage != "nonce" || replay.Signers != nil {
		t.Fatalf("replay: %+v", replay)
	}
	if got := col.Snapshot(); !reflect.DeepEqual(got, colBefore) {
		t.Fatalf("replay moved the collector:\n%+v\n%+v", colBefore, got)
	}
	if got := wd.Coverage(); got.Evaluations != wdBefore.Evaluations || !reflect.DeepEqual(got.Places, wdBefore.Places) {
		t.Fatalf("replay moved the watchdog:\n%+v\n%+v", wdBefore, got)
	}
}

// TestPathSigners: the envelope's signers are the chain's distinct
// signers in path order — a signature after everything it covers, so
// the first hop to sign comes first, once even when it signs again — in
// one allocation.
func TestPathSigners(t *testing.T) {
	sw1, sw2 := rot.NewDeterministic("sw1", []byte("s1")), rot.NewDeterministic("sw2", []byte("s2"))
	claim := func(place string) *evidence.Evidence {
		return evidence.Measurement(place, "prog", place, evidence.DetailProgram, rot.Digest{}, nil)
	}
	hop1 := evidence.Sign(sw1, evidence.Seq(evidence.Nonce([]byte("n")), claim("sw1")))
	hop2 := evidence.Sign(sw2, evidence.Seq(hop1, claim("sw2")))
	loop := evidence.Sign(sw1, evidence.Seq(hop2, claim("sw1")))
	keys := evidence.KeyMap{"sw1": sw1.Public(), "sw2": sw2.Public()}
	memo := evidence.NewVerifyMemo(0)
	pathSigners := func(ev *evidence.Evidence) []string {
		var signers []string
		if _, _, err := memo.VerifyEncoded(evidence.Encode(ev), keys, &signers); err != nil {
			t.Fatal(err)
		}
		return signers
	}
	if got, want := pathSigners(loop), []string{"sw1", "sw2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("signers %v, want %v", got, want)
	}
	if got := pathSigners(claim("sw1")); got != nil {
		t.Fatalf("unsigned chain: signers %v, want none", got)
	}
	if raceEnabled {
		return // sync.Pool drops the walker's scratch under the race detector
	}
	enc := evidence.Encode(loop)
	var signers []string
	if allocs := testing.AllocsPerRun(100, func() { memo.VerifyEncoded(enc, keys, &signers) }); allocs != 1 {
		t.Fatalf("the signer list allocated %.1f times, want 1", allocs)
	}
}

// nopSink reads nothing.
type nopSink struct{}

func (nopSink) StageOpened(telemetry.StageEvent) {}
func (nopSink) StageEnded(telemetry.StageEvent)  {}

// TestTracerOnlyBuildsNoSigners: the envelope's signers are built for
// sinks alone, and its flow ID for sinks and sampled flows. With only a
// 1-in-8 flow tracer attached, appraising an unsampled flow allocates
// what a bare appraiser does; a subscribed sink adds the flow ID and the
// signer list.
func TestTracerOnlyBuildsNoSigners(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := attesterRoT()
	a := newAppraiser(r)
	tr := telemetry.NewFlowTracer(64)
	tr.SetSampleEvery(8)
	nonce := []byte("flow-0")
	for i := 1; tr.Sampled(hex.EncodeToString(nonce)); i++ {
		nonce = []byte("flow-" + strconv.Itoa(i))
	}
	ev := goodEvidence(r, nonce)
	appraise := func() {
		if c, err := a.Appraise("sw1", ev, nil); err != nil || !c.Verdict {
			t.Fatalf("appraise: %+v, %v", c, err)
		}
	}
	bare := testing.AllocsPerRun(50, appraise)
	enc := evidence.Encode(ev)
	var id string
	flowID := testing.AllocsPerRun(50, func() {
		_, first, _ := evidence.Scan(enc)
		id = rats.FlowID(first)
	})
	_ = id
	a.SetTracer(tr)
	traced := testing.AllocsPerRun(50, appraise)
	if traced != bare {
		t.Fatalf("tracer only: %.0f allocations, want %.0f (bare)", traced, bare)
	}
	if tr.Len() != 0 {
		t.Fatalf("the unsampled flow recorded %d spans", tr.Len())
	}
	// A sampled flow is still traced under its nonce's hex.
	sampled := []byte("flow-0")
	for i := 1; !tr.Sampled(hex.EncodeToString(sampled)); i++ {
		sampled = []byte("flow-" + strconv.Itoa(i))
	}
	if c, err := a.Appraise("sw1", goodEvidence(r, sampled), nil); err != nil || !c.Verdict {
		t.Fatalf("appraise the sampled flow: %+v, %v", c, err)
	}
	if tr.Len() == 0 {
		t.Fatal("the sampled flow recorded no spans")
	}
	for _, sp := range tr.Spans() {
		if sp.Flow != hex.EncodeToString(sampled) {
			t.Fatalf("span %s under flow %q, want %q", sp.Stage, sp.Flow, hex.EncodeToString(sampled))
		}
	}
	a.Subscribe(nopSink{})
	if sunk := testing.AllocsPerRun(50, appraise); sunk != traced+flowID+1 {
		t.Fatalf("with a sink: %.0f allocations, want %.0f (traced) + %.0f (the flow ID) + 1 (the signers)", sunk, traced, flowID)
	}
}
