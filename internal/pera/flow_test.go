package pera

import (
	"errors"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/telemetry"
)

// v2Frame is a frame on the retired wire version 2: version byte 2 and a
// third LV section, here one hop record in that version's encoding,
// between the evidence and the inner frame.
func v2Frame(h *Header, inner []byte) []byte {
	frame := append([]byte(nil), headerMagic[:]...)
	frame = append(frame, 2)
	frame = appendLV(frame, h.encodedPolicy())
	frame = appendLV(frame, evidence.Encode(h.Evidence))
	frame = appendLV(frame, []byte{0, 1, 3, 's', 'w', '1', 2, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	return append(frame, inner...)
}

// TestHeaderV2PushPop: Push emits wire version 1, and a version-2
// header is refused like any other unknown version, by Pop and by the
// hop's own pop alike.
func TestHeaderV2PushPop(t *testing.T) {
	pol := &Policy{ID: 3, Nonce: []byte("n2"), Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true}}}
	h := &Header{Policy: pol, Evidence: evidence.Nonce(pol.Nonce)}
	if v1 := Push(h, []byte("payload")); v1[4] != headerVersion {
		t.Fatalf("Push emitted version %d", v1[4])
	}
	v2 := v2Frame(h, []byte("payload"))
	if _, _, err := Pop(v2); !errors.Is(err, ErrHeaderDecode) {
		t.Fatalf("Pop of a version-2 header: %v, want ErrHeaderDecode", err)
	}
	if _, _, err := popChain(v2); !errors.Is(err, ErrHeaderDecode) {
		t.Fatalf("popChain of a version-2 header: %v, want ErrHeaderDecode", err)
	}
}

// TestFlowIDFirstNonEmptyNonce pins the one flow-ID rule the planes
// share: rats.FlowID of evidence.FirstNonce, the first non-empty nonce,
// so "-" without one. The switch takes the nonce from the scan of the
// chain's bytes that its pop runs anyway.
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
		if got := rats.FlowID(evidence.FirstNonce(c.ev)); got != c.want {
			t.Errorf("FlowID of FirstNonce(%v) = %q, want %q", c.ev, got, c.want)
		}
		hdr, _, err := popChain(Push(&Header{Policy: pol, Evidence: c.ev}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := rats.FlowID(hdr.nonce); got != c.want {
			t.Errorf("FlowID of the chain bytes of %v = %q, want %q", c.ev, got, c.want)
		}
	}
}

// unsampledHop is a switch whose only plane is tr, and an in-band frame
// of the flow 756e73616d706c6564 ("unsampled"), which a tracer at 1 in
// 2^30 does not sample.
func unsampledHop(t *testing.T, tr *telemetry.FlowTracer) (*Switch, []byte) {
	t.Helper()
	sw := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	sw.SetTracer(tr)
	pol := &Policy{
		ID: 1, Nonce: []byte("unsampled"),
		Obls: []Obligation{{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true, Appraiser: "Appraiser"}},
	}
	return sw, WrapFrame(pol, testFrame(t, sw))
}

// TestSpanSamplingSkipsUnsampledFlows: the tracer samples whole flows,
// and a switch asks it before it builds the flow ID, so a flow it does
// not sample records no span at the hop, while a sampled one records
// the hop under that ID.
func TestSpanSamplingSkipsUnsampledFlows(t *testing.T) {
	tr := telemetry.NewFlowTracer(64)
	tr.SetSampleEvery(1 << 30)
	sw, frame := unsampledHop(t, tr)
	if tr.SampledNonce([]byte("unsampled")) {
		t.Fatal("the test flow is sampled at 1 in 2^30")
	}
	if _, err := sw.Receive(1, frame); err != nil {
		t.Fatal(err)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("an unsampled flow recorded %d spans", n)
	}
	tr.SetSampleEvery(1)
	if _, err := sw.Receive(1, frame); err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, s := range tr.Flow(rats.FlowID([]byte("unsampled"))) {
		if s.Stage == telemetry.StageHop {
			hops++
		}
	}
	if hops != 1 {
		t.Fatalf("a sampled flow recorded %d hop spans under its flow ID, want 1", hops)
	}
}

// TestReceiveUnsampledFlowAllocs: a hop whose only plane is a tracer
// that does not sample the frame's flow builds no flow ID for it.
func TestReceiveUnsampledFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	tr := telemetry.NewFlowTracer(64)
	tr.SetSampleEvery(1 << 30)
	sw, frame := unsampledHop(t, tr)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sw.Receive(1, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 9 {
		t.Fatalf("Receive of an unsampled flow's in-band frame: %.0f allocations, want 9", allocs)
	}
}
