package rats

// One write and one buffer per message: Conn.Write hands its writer the
// whole frame in one call, Conn.Read gives each frame one buffer that
// Decode cuts the message's byte fields from.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"pera/internal/telemetry"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// writeRecorder keeps a copy of what each Write call was handed.
type writeRecorder struct{ calls [][]byte }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.calls = append(w.calls, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeRecorder) Read([]byte) (int, error) { return 0, io.EOF }

// TestWriteOneCall: every message, length prefix included, reaches the
// writer in exactly one Write; the frame scratch is kept between small
// messages and dropped after one larger than readChunk; a message over
// MaxMessageSize writes nothing.
func TestWriteOneCall(t *testing.T) {
	w := &writeRecorder{}
	c := NewConn(w)
	for i, m := range goldenMessages() {
		w.calls = nil
		if err := c.Write(m); err != nil {
			t.Fatal(err)
		}
		if len(w.calls) != 1 {
			t.Fatalf("message %d (%v): %d Write calls, want 1", i, m.Type, len(w.calls))
		}
		frame := w.calls[0]
		if len(frame) < 4 || int(binary.BigEndian.Uint32(frame)) != len(frame)-4 || !bytes.Equal(frame[4:], Encode(m)) {
			t.Fatalf("message %d (%v): the one Write is not the length-prefixed encoding", i, m.Type)
		}
		if big := len(frame) > readChunk; big != (c.wbuf == nil) {
			t.Fatalf("message %d: a %d-byte frame left a scratch of capacity %d", i, len(frame), cap(c.wbuf))
		}
	}
	w.calls = nil
	over := &Message{Type: MsgEvidence, Body: make([]byte, MaxMessageSize)}
	if err := c.Write(over); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	if len(w.calls) != 0 {
		t.Fatalf("oversize write made %d Write calls", len(w.calls))
	}
}

// TestWriteUnsampledFlowAllocs: with a tracer set, a write of a message
// whose flow the tracer does not sample builds no flow ID, and so
// allocates nothing once the frame scratch exists.
func TestWriteUnsampledFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	tr := telemetry.NewFlowTracer(16)
	tr.SetSampleEvery(1 << 30)
	nonce := []byte("unsampled")
	if tr.SampledNonce(nonce) {
		t.Fatal("the test flow is sampled at 1 in 2^30")
	}
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard})
	c.SetTracer(tr)
	m := &Message{Type: MsgChallenge, Session: 1, Nonce: nonce, Claims: []string{"program"}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Write(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || m.Trace != nil {
		t.Fatalf("writing an unsampled flow's message: %.0f allocations, trace %+v; want 0 and none", allocs, m.Trace)
	}
}

// callAllocs is what one challenge → evidence Call allocates on both
// ends of a pipe once each Conn's frame scratch exists: the server's
// frame buffer, message, claims string and claims slice, the handler's
// response, and the client's frame buffer and message.
const callAllocs = 7

func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	body := bytes.Repeat([]byte{0xE5}, 390)
	go Serve(b, func(m *Message) *Message {
		return &Message{Type: MsgEvidence, Session: m.Session, Nonce: m.Nonce, Body: body}
	})
	req := &Message{Type: MsgChallenge, Session: 1, Nonce: make([]byte, 16), Claims: []string{"hardware", "program"}}
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := a.Call(req)
		if err != nil || resp.Type != MsgEvidence || !bytes.Equal(resp.Body, body) {
			t.Fatalf("call: %+v %v", resp, err)
		}
	})
	if allocs > callAllocs {
		t.Fatalf("a challenge → evidence Call allocated %.1f times, want at most %d", allocs, callAllocs)
	}
}

// TestDecodeAliasSafety: Decode's fields are cut from the frame, each
// capacity-clamped, so appending to one never reaches the frame or the
// field after it.
func TestDecodeAliasSafety(t *testing.T) {
	m := &Message{
		Type: MsgAppraise, Session: 5, Nonce: []byte("nonce"),
		Claims: []string{"sw1", "program"}, Body: []byte("body"),
		Ext: []ExtField{{Tag: 7, Value: []byte("first")}, {Tag: 8, Value: []byte("second")}},
	}
	frame := Encode(m)
	saved := append([]byte(nil), frame...)
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	got.Nonce = append(got.Nonce, "-grown"...)
	got.Claims[0] += "-grown"
	got.Claims = append(got.Claims, "extra")
	got.Ext[0].Value = append(got.Ext[0].Value, "-grown"...)
	if !bytes.Equal(frame, saved) {
		t.Fatal("appending to a decoded field wrote into the frame")
	}
	if string(got.Body) != "body" || got.Claims[1] != "program" || string(got.Ext[1].Value) != "second" {
		t.Fatalf("appending to one field changed another: %+v", got)
	}
	if string(got.Nonce) != "nonce-grown" || got.Claims[0] != "sw1-grown" || string(got.Ext[0].Value) != "first-grown" {
		t.Fatalf("appends: %+v", got)
	}
}

// FuzzConnRead feeds arbitrary byte streams to Conn.Read: nothing
// panics, and each frame it accepts writes back through Conn.Write as
// the same bytes. Decode keeps no byte the writer cannot restore except
// in a trailer the writer never lays out (see canonicalTrailer); such a
// frame must write back as a fixpoint instead.
func FuzzConnRead(f *testing.F) {
	var golden bytes.Buffer
	w := NewConn(&golden)
	msgs := goldenMessages()
	for _, m := range msgs[:len(msgs)-1] { // all but the 64 KiB body
		if err := w.Write(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(golden.Bytes())
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxMessageSize+1))
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(stream), io.Discard})
		for off := 0; ; {
			m, err := c.Read()
			if err != nil {
				return
			}
			frame := stream[off : off+4+int(binary.BigEndian.Uint32(stream[off:]))]
			off += len(frame)
			back := writeBack(t, m)
			if canonicalTrailer(frame, m) {
				if !bytes.Equal(back, frame) {
					t.Fatalf("frame wrote back differently:\n got %x\nwant %x", back, frame)
				}
				continue
			}
			again, err := NewConn(struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(back), io.Discard}).Read()
			if err != nil {
				t.Fatalf("written-back frame does not read: %v", err)
			}
			if !bytes.Equal(writeBack(t, again), back) {
				t.Fatal("written-back frame is not a fixpoint of Read and Write")
			}
		}
	})
}

func writeBack(t *testing.T, m *Message) []byte {
	var out bytes.Buffer
	if err := NewConn(&out).Write(m); err != nil {
		t.Fatalf("accepted frame does not write back: %v", err)
	}
	return out.Bytes()
}

// canonicalTrailer reports whether frame's trailer is one the writer
// lays out: at most one trace field, ahead of every unknown field, with
// a flags byte of 0 or 1. Decode drops what any other trailer adds (a
// second trace field, the order, reserved flag bits).
func canonicalTrailer(frame []byte, m *Message) bool {
	head := *m
	head.Trace, head.Ext = nil, nil
	trailer := frame[4+len(Encode(&head)):]
	for i := 0; len(trailer) > 0; i++ {
		tag, n := trailer[0], int(binary.BigEndian.Uint32(trailer[1:]))
		if tag == extTagTrace && (i > 0 || trailer[5+n-1] > 1) {
			return false
		}
		trailer = trailer[5+n:]
	}
	return true
}
