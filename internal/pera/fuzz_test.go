package pera

import (
	"bytes"
	"math/rand"
	"testing"

	"pera/internal/evidence"
)

// Mutation robustness for the in-band header and policy codecs: a PERA
// switch pops headers from frames it did not originate; corruption must
// surface as an error, never a panic.

func fuzzBaseFrame() []byte {
	pol := &Policy{
		ID:    9,
		Nonce: []byte("fuzz-nonce"),
		Obls: []Obligation{
			{
				Place:        "sw1",
				Guards:       []Guard{{Field: "tp.dport", Value: 443}},
				Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
				HashEvidence: true, SignEvidence: true,
				Appraiser: "Appraiser",
			},
			{Claims: []evidence.Detail{evidence.DetailHardware}},
		},
	}
	return WrapFrame(pol, []byte("inner-frame-payload-bytes"))
}

func TestHeaderPopMutationRobustness(t *testing.T) {
	base := fuzzBaseFrame()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), base...)
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0:
				if len(data) > 0 {
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				}
			case 1:
				if len(data) > 1 {
					data = data[:rng.Intn(len(data))]
				}
			case 2:
				data = append(data, byte(rng.Intn(256)))
			}
		}
		hdr, rest, err := Pop(data)
		if err == nil {
			// A surviving header must re-encode.
			_ = Push(hdr, rest)
		}
	}
}

func TestPolicyDecodeRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(128))
		rng.Read(data)
		if p, err := DecodePolicy(data); err == nil {
			_ = p.Encode()
		}
	}
}

// FuzzDecodePolicy feeds hostile bytes to the policy decoder every hop's
// Pop runs on a policy-cache miss. It must never panic, and every input
// it accepts must re-encode byte for byte: the wire form is canonical,
// so the cache and the evidence each policy binds see one encoding. The
// seed corpus in testdata/fuzz/FuzzDecodePolicy also runs under plain
// go test.
func FuzzDecodePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePolicy(data)
		if err != nil {
			return
		}
		if enc := p.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, enc)
		}
	})
}

// A switch receiving mutated in-band frames must either forward, drop,
// or error — never panic or corrupt its own state.
func TestSwitchReceiveMutatedFrames(t *testing.T) {
	s := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	base := fuzzBaseFrame()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		data := append([]byte(nil), base...)
		for m := 0; m < 1+rng.Intn(3); m++ {
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
		}
		_, _ = s.Receive(1, data) // must not panic
	}
	// The switch still works on clean traffic afterwards.
	outs, err := s.Receive(1, testFrame(t, s))
	if err != nil || len(outs) != 1 {
		t.Fatalf("switch wedged after fuzzing: %v %v", outs, err)
	}
}
