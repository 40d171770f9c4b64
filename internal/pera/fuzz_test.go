package pera

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
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

// TestReceiveRejectsMalformedChain sends evidence sections that Decode
// rejects. The hop checks its chain without decoding it, and must reject
// each one as Decode would: an error wrapping evidence.ErrDecode, no
// frame out and nothing signed.
func TestReceiveRejectsMalformedChain(t *testing.T) {
	nonce := evidence.Encode(evidence.Nonce([]byte("n")))
	msmt := evidence.Encode(evidence.Measurement("sw0", "prog", "sw0", evidence.DetailProgram, [32]byte{}, nil))
	badDetail := append([]byte(nil), msmt...)
	badDetail[1+(4+3)+(4+4)+(4+3)] = 9 // after the kind, measurer, target and place
	sections := map[string][]byte{
		"truncated":   nonce[:len(nonce)-1],
		"kind 7":      {7},
		"detail 9":    badDetail,
		"trailing":    append(append([]byte(nil), nonce...), 0),
		"field >1MiB": binary.BigEndian.AppendUint32([]byte{byte(evidence.KindNonce)}, 1<<20+1),
	}
	if _, err := evidence.Decode(badDetail); err == nil || !strings.Contains(err.Error(), "invalid detail") {
		t.Fatalf("detail case does not hit the detail check: %v", err)
	}
	s := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	pol := (&Policy{Nonce: []byte("n"), Obls: []Obligation{{
		Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true,
	}}}).Encode()
	for name, evb := range sections {
		if _, err := evidence.Decode(evb); err == nil {
			t.Fatalf("%s: Decode accepts the section", name)
		}
		frame := append([]byte(nil), headerMagic[:]...)
		frame = append(frame, headerVersion)
		frame = appendLV(frame, pol)
		frame = appendLV(frame, evb)
		frame = append(frame, testFrame(t, s)...)
		emits, err := s.Receive(1, frame)
		if !errors.Is(err, evidence.ErrDecode) || len(emits) != 0 {
			t.Errorf("%s: %d emissions, error %v; want none and evidence.ErrDecode", name, len(emits), err)
		}
	}
	if ops := s.Stats().SignOps; ops != 0 {
		t.Fatalf("%d signs over malformed chains", ops)
	}
}
