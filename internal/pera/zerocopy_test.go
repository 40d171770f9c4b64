package pera

import (
	"bytes"
	"math/rand"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rot"
)

// Zero-copy LV parsing contract (see Pop): the returned Header must not
// alias the source frame — only the returned inner-frame slice does — so
// a caller may reuse or scribble over the frame buffer the moment Pop
// returns. These tests pin that contract and the codec's round-trip
// equality under the raw-policy replay cache.

// zcHeader builds a header with signed, chained evidence — the richest
// shape the wire carries. It panics on setup failure so FuzzPop can use
// it for seed corpora too.
func zcHeader() *Header {
	r, err := rot.New("sw1")
	if err != nil {
		panic(err)
	}
	m1 := evidence.Measurement("sw1", "prog", "sw1", evidence.DetailProgram, rot.Digest{7: 7}, nil)
	m2 := evidence.Measurement("sw1", "tables", "sw1", evidence.DetailTables, rot.Digest{9: 9}, nil)
	ev := evidence.Sign(r, evidence.Seq(m1, m2))
	return &Header{
		Policy: &Policy{
			ID:    42,
			Nonce: []byte("zc-nonce"),
			Obls: []Obligation{{
				Place:        "sw1",
				Guards:       []Guard{{Field: "tp.dport", Value: 443}},
				Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
				HashEvidence: true, SignEvidence: true,
				Appraiser: "Appraiser",
			}},
		},
		Evidence: ev,
	}
}

// TestPopDoesNotAliasFrame mutates every byte of the source frame after
// Pop and requires the parsed header to re-encode identically — the
// zero-copy parse may alias the frame transiently, but nothing the
// caller receives in the Header may.
func TestPopDoesNotAliasFrame(t *testing.T) {
	inner := []byte("inner-frame-payload")
	frame := Push(zcHeader(), inner)
	hdr, rest, err := Pop(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, inner) {
		t.Fatal("inner frame mismatch")
	}
	before := Push(hdr, nil)
	for i := range frame {
		frame[i] ^= 0xFF
	}
	after := Push(hdr, nil)
	if !bytes.Equal(before, after) {
		t.Fatal("header re-encode changed after source frame mutation")
	}
	// Spot-check decoded structure too, not just the encoder.
	if hdr.Policy.ID != 42 || string(hdr.Policy.Nonce) != "zc-nonce" {
		t.Fatalf("policy corrupted by frame mutation: %+v", hdr.Policy)
	}
	if n := len(evidence.Measurements(hdr.Evidence)); n != 2 {
		t.Fatalf("evidence corrupted: %d measurements", n)
	}
}

// TestPushPopRoundTrip requires Pop∘Push to be the identity on bytes:
// popping a frame and pushing the unmodified header back must reproduce
// the original frame bit for bit (the raw-policy replay cache makes this
// cheap; this test makes sure it also keeps it correct).
func TestPushPopRoundTrip(t *testing.T) {
	inner := []byte("round-trip-inner")
	orig := Push(zcHeader(), inner)
	hdr, rest, err := Pop(orig)
	if err != nil {
		t.Fatal(err)
	}
	again := Push(hdr, rest)
	if !bytes.Equal(orig, again) {
		t.Fatalf("Push(Pop(frame)) != frame\n orig %x\nagain %x", orig, again)
	}
}

// TestPopRandomSlicesNoAliasing is the property-test form: random
// truncations and corruptions of a valid frame either fail to parse or
// yield headers that survive the source buffer being zeroed.
func TestPopRandomSlicesNoAliasing(t *testing.T) {
	base := Push(zcHeader(), []byte("payload"))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		data := append([]byte(nil), base...)
		if rng.Intn(2) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		for m := 0; m < rng.Intn(3); m++ {
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
		}
		hdr, _, err := Pop(data)
		if err != nil {
			continue
		}
		before := Push(hdr, nil)
		for j := range data {
			data[j] = 0
		}
		if !bytes.Equal(before, Push(hdr, nil)) {
			t.Fatalf("iteration %d: header aliases popped frame", i)
		}
	}
}

// FuzzPop drives the header parser with arbitrary bytes: it must never
// panic, it must refuse every version but 1 (the second seed is a
// frame on the retired version 2), and any frame it accepts must
// re-encode to a frame it accepts again with an identical header
// section. The hop's own pop, which keeps the evidence section as
// bytes, must accept exactly the frames Pop accepts and push the same
// bytes.
func FuzzPop(f *testing.F) {
	f.Add(Push(zcHeader(), []byte("seed")))
	f.Add(v2Frame(zcHeader(), []byte("seed-v2")))
	f.Add([]byte("PERA"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, rest, err := Pop(data)
		raw, rawRest, rawErr := popChain(data)
		if (err == nil) != (rawErr == nil) {
			t.Fatalf("Pop error %v, popChain error %v", err, rawErr)
		}
		if err != nil {
			return
		}
		if data[4] != headerVersion {
			t.Fatalf("accepted a version-%d header", data[4])
		}
		reenc := Push(hdr, rest)
		if got := Push(raw, rawRest); !bytes.Equal(got, reenc) {
			t.Fatalf("popChain pushes\n%x\nPop pushes\n%x", got, reenc)
		}
		hdr2, rest2, err := Pop(reenc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(rest, rest2) {
			t.Fatal("inner frame not preserved across re-encode")
		}
		if !bytes.Equal(Push(hdr, nil), Push(hdr2, nil)) {
			t.Fatal("header not fixed under re-encode")
		}
	})
}
