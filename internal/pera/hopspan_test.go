package pera

import (
	"errors"
	"fmt"
	"testing"

	"pera/internal/evidence"
)

func sampleSpans() []HopSpan {
	return []HopSpan{
		{Place: "sw1", Flags: SpanAttested, SignNS: 120000, TotalNS: 150000, EvBytes: 210, CacheMisses: 1},
		{Place: "sw2", Flags: SpanVerified | SpanAttested, VerifyNS: 80000, SignNS: 110000, TotalNS: 400000, EvBytes: 305, CacheHits: 1, GuardRejects: 2, SampleSkips: 1},
	}
}

func TestSpanSectionRoundTrip(t *testing.T) {
	spans := sampleSpans()
	enc := appendSpanSection(nil, spans, true)
	if len(enc) != SpanSectionSize(spans) {
		t.Fatalf("size: %d, predicted %d", len(enc), SpanSectionSize(spans))
	}
	got, truncated, err := decodeSpanSection(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("truncated flag lost")
	}
	if len(got) != len(spans) {
		t.Fatalf("spans: %d", len(got))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, got[i], spans[i])
		}
	}
	if !got[1].Verified() || !got[1].Attested() || got[0].Verified() {
		t.Fatalf("flags: %+v", got)
	}
}

func TestSpanSectionDecodeGarbage(t *testing.T) {
	good := appendSpanSection(nil, sampleSpans(), false)
	cases := [][]byte{
		nil,
		good[:1],
		good[:len(good)/2],
		{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // huge count
	}
	for i, data := range cases {
		if _, _, err := decodeSpanSection(data); err == nil {
			t.Errorf("case %d decoded", i)
		} else if !errors.Is(err, ErrHeaderDecode) {
			t.Errorf("case %d: wrong error %v", i, err)
		}
	}
}

func TestHeaderV2PushPop(t *testing.T) {
	pol := &Policy{ID: 3, Nonce: []byte("n2"), Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true}}}
	inner := []byte("payload")

	// No spans: byte-identical to the v1 wire.
	v1 := Push(&Header{Policy: pol, Evidence: evidence.Nonce(pol.Nonce)}, inner)
	if v1[4] != headerVersion {
		t.Fatalf("span-free header emitted version %d", v1[4])
	}

	h := &Header{Policy: pol, Evidence: evidence.Nonce(pol.Nonce), Spans: sampleSpans()}
	wire := Push(h, inner)
	if wire[4] != headerVersionV2 {
		t.Fatalf("spanned header emitted version %d", wire[4])
	}
	got, rest, err := Pop(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != string(inner) {
		t.Fatalf("inner: %q", rest)
	}
	if len(got.Spans) != 2 || got.Spans[0].Place != "sw1" || got.Spans[1].Place != "sw2" {
		t.Fatalf("spans: %+v", got.Spans)
	}
	if got.SpansTruncated {
		t.Fatal("spurious truncation")
	}
	if HeaderOverhead(got) != len(wire)-len(inner) {
		t.Fatalf("overhead %d, want %d", HeaderOverhead(got), len(wire)-len(inner))
	}
}

func TestSpanSamplingWholeFlow(t *testing.T) {
	every := SpanConfig{Enabled: true}
	if !every.Sampled("anything") {
		t.Fatal("SampleEvery=0 must sample all flows")
	}
	c := SpanConfig{Enabled: true, SampleEvery: 8}
	sampled := 0
	for i := 0; i < 800; i++ {
		flow := fmt.Sprintf("flow-%d", i)
		first := c.Sampled(flow)
		if first != c.Sampled(flow) {
			t.Fatal("sampling not deterministic per flow")
		}
		if first {
			sampled++
		}
	}
	if sampled < 40 || sampled > 300 {
		t.Fatalf("1-in-8 sampling picked %d/800 flows", sampled)
	}
}

// TestSwitchAppendsHopSpans runs a frame through two span-enabled hops
// and checks each hop's record: order, attestation flags, verify timing
// at the second hop, and evidence-growth accounting.
func TestSwitchAppendsHopSpans(t *testing.T) {
	cfg := func() Config {
		return Config{InBand: true, Composition: evidence.Chained, Spans: SpanConfig{Enabled: true}}
	}
	sw1 := newSwitch(t, "sw1", cfg())
	c2 := cfg()
	c2.VerifyIncoming = evidence.KeyMap{"sw1": sw1.RoT().Public()}
	sw2 := newSwitch(t, "sw2", c2)

	pol := &Policy{
		ID: 1, Nonce: []byte("n"),
		Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true, Appraiser: "Appraiser"}},
	}
	outs, err := sw1.Receive(1, WrapFrame(pol, testFrame(t, sw1)))
	if err != nil {
		t.Fatal(err)
	}
	outs, err = sw2.Receive(1, outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := UnwrapFrame(outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr.Spans) != 2 {
		t.Fatalf("spans: %+v", hdr.Spans)
	}
	s1, s2 := hdr.Spans[0], hdr.Spans[1]
	if s1.Place != "sw1" || s2.Place != "sw2" {
		t.Fatalf("hop order: %s, %s", s1.Place, s2.Place)
	}
	if !s1.Attested() || !s2.Attested() {
		t.Fatalf("attested flags: %+v %+v", s1, s2)
	}
	if s1.Verified() {
		t.Fatal("sw1 has no verify stage configured")
	}
	if !s2.Verified() || s2.VerifyNS == 0 {
		t.Fatalf("sw2 verify span: %+v", s2)
	}
	if s1.SignNS == 0 || s1.TotalNS < s1.SignNS {
		t.Fatalf("sw1 timing: %+v", s1)
	}
	if s1.EvBytes == 0 || s2.EvBytes == 0 {
		t.Fatalf("evidence growth: %+v %+v", s1, s2)
	}
	st := sw1.Stats()
	if st.HopSpans != 1 || st.HopSpanBytes == 0 || st.HopSpanDrops != 0 {
		t.Fatalf("sw1 stats: %+v", st)
	}
}

// TestSpanByteBudgetTruncates pushes a frame through a hop whose budget
// cannot hold even one span: the hop must drop its own record, mark the
// section truncated, and count the drop — never blow the budget.
func TestSpanByteBudgetTruncates(t *testing.T) {
	cfg := Config{
		InBand: true, Composition: evidence.Chained,
		Spans: SpanConfig{Enabled: true, ByteBudget: 4},
	}
	sw := newSwitch(t, "sw1", cfg)
	pol := &Policy{
		ID: 1, Nonce: []byte("n"),
		Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true, Appraiser: "Appraiser"}},
	}
	outs, err := sw.Receive(1, WrapFrame(pol, testFrame(t, sw)))
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := UnwrapFrame(outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr.Spans) != 0 || !hdr.SpansTruncated {
		t.Fatalf("budget not honored: %+v truncated=%v", hdr.Spans, hdr.SpansTruncated)
	}
	if st := sw.Stats(); st.HopSpanDrops != 1 || st.HopSpans != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSpanSamplingSkipsUnsampledFlows: an unsampled flow's header stays
// on wire version 1 — zero observability bytes for 1-in-N traffic.
func TestSpanSamplingSkipsUnsampledFlows(t *testing.T) {
	cfg := Config{
		InBand: true, Composition: evidence.Chained,
		// Astronomically sparse sampling: this flow will not be chosen.
		Spans: SpanConfig{Enabled: true, SampleEvery: 1 << 30},
	}
	sw := newSwitch(t, "sw1", cfg)
	pol := &Policy{
		ID: 1, Nonce: []byte("unsampled"),
		Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true, Appraiser: "Appraiser"}},
	}
	outs, err := sw.Receive(1, WrapFrame(pol, testFrame(t, sw)))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Frame[4] != headerVersion {
		t.Fatalf("unsampled flow carried version %d", outs[0].Frame[4])
	}
	hdr, _, err := UnwrapFrame(outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr.Spans) != 0 || hdr.SpansTruncated {
		t.Fatalf("unsampled flow carried spans: %+v", hdr.Spans)
	}
}

// TestFlowIDFirstNonEmptyNonce pins the one flow-ID rule the planes
// share: the hex of evidence.FirstNonce, the first non-empty nonce, else
// "-". The switch reads it from the chain's bytes, the collector from a
// popped tree, and the appraiser and the pool from FirstNonce itself.
func TestFlowIDFirstNonEmptyNonce(t *testing.T) {
	cases := []struct {
		ev   *evidence.Evidence
		want string
	}{
		{evidence.Seq(evidence.Nonce(nil), evidence.Nonce([]byte("abc"))), "616263"},
		{evidence.Seq(&evidence.Evidence{Kind: evidence.KindNonce, Nonce: []byte{}}, evidence.Nonce([]byte("abc"))), "616263"},
		{evidence.Nonce(nil), "-"},
		{evidence.Empty(), "-"},
		{evidence.Seq(evidence.Nonce([]byte("n1")), evidence.Nonce([]byte("n2"))), "6e31"},
	}
	pol := &Policy{Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}}}}
	for _, c := range cases {
		if got := FlowID(&Header{Evidence: c.ev}); got != c.want {
			t.Errorf("FlowID(%v) = %q, want %q", c.ev, got, c.want)
		}
		hdr, _, err := popChain(Push(&Header{Policy: pol, Evidence: c.ev}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := FlowID(hdr); got != c.want {
			t.Errorf("FlowID of the chain bytes of %v = %q, want %q", c.ev, got, c.want)
		}
	}
	if got := FlowID(nil); got != "-" {
		t.Errorf("FlowID(nil) = %q", got)
	}
}
