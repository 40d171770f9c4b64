package rats

// The wire pin: testdata/frames.golden holds frames exactly as Conn.Write
// laid them out before the writer and decoder were rebuilt around one
// buffer per message. A frame an older binary wrote must read and write
// back byte for byte, which is what lets an old attestd talk to a new
// appraised and the other way round.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from goldenMessages")

var framesGolden = filepath.Join("testdata", "frames.golden")

// goldenMessages is one message per MsgType plus the edge cases of the
// layout: empty and non-empty nonce, claims (an empty claim too) and
// body, sampled and unsampled trace trailers, unknown trailer tags, and
// a body larger than readChunk.
func goldenMessages() []*Message {
	nonce := []byte{0x6f, 0x62, 0x73, 0x2d, 0x34, 0x38, 0x00, 0xff, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}
	trace := &TraceContext{
		TraceID: "00112233445566778899aabbccddeeff",
		SpanID:  "0123456789abcdef",
		Sampled: true,
	}
	return []*Message{
		{Type: MsgChallenge, Session: 1, Nonce: nonce, Claims: []string{"hardware", "program"}},
		{Type: MsgEvidence, Session: 2, Nonce: nonce, Body: []byte("signed evidence bytes")},
		{Type: MsgAppraise, Session: 3, Nonce: nonce, Claims: []string{"sw1"}, Body: []byte("signed evidence bytes")},
		{Type: MsgResult, Session: 4, Nonce: nonce, Body: []byte("PERA-CERT-v1 certificate")},
		{Type: MsgRetrieve, Session: 5, Nonce: nonce},
		{Type: MsgError, Session: 6, Body: []byte("appraiser: nonce already used")},
		{Type: MsgExec, Session: 7, Claims: []string{"sw2", "attest(n) program -> !"}, Body: []byte{0, 0, 0, 0, 9}},
		{Type: MsgSign, Session: 8, Claims: []string{"sw3"}, Body: []byte("message to sign")},
		{Type: MsgChallenge},
		{Type: MsgAppraise, Session: 1 << 63, Claims: []string{""}, Body: []byte{}},
		{Type: MsgChallenge, Session: 9, Nonce: nonce, Claims: []string{"hardware"}, Trace: trace},
		{
			Type: MsgEvidence, Session: 10, Nonce: nonce, Body: []byte("ev"),
			Trace: &TraceContext{TraceID: trace.TraceID, SpanID: "fedcba9876543210"},
			Ext:   []ExtField{{Tag: 7, Value: []byte("future field")}, {Tag: 200}},
		},
		{Type: MsgResult, Session: 11, Ext: []ExtField{{Tag: 42, Value: []byte{1, 2, 3}}}},
		{Type: MsgEvidence, Session: 12, Nonce: nonce, Body: bytes.Repeat([]byte("pera"), readChunk/4+1)},
	}
}

// TestFramesGolden reads every golden frame with Conn.Read, writes it
// back with Conn.Write and wants the same bytes; the writer must also
// lay goldenMessages out exactly as the golden file holds them.
func TestFramesGolden(t *testing.T) {
	var written bytes.Buffer
	w := NewConn(&written)
	for _, m := range goldenMessages() {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(framesGolden, written.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(framesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written.Bytes(), golden) {
		t.Fatalf("Conn.Write lays goldenMessages out differently from %s", framesGolden)
	}

	r := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(golden), io.Discard})
	want := goldenMessages()
	off, n := 0, 0
	for ; ; n++ {
		m, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		if n >= len(want) || !msgEqual(m, want[n]) || !traceEqual(m.Trace, want[n].Trace) || !extEqual(m.Ext, want[n].Ext) {
			t.Fatalf("frame %d decoded to %+v", n, m)
		}
		frame := golden[off : off+4+int(binary.BigEndian.Uint32(golden[off:]))]
		off += len(frame)
		var back bytes.Buffer
		if err := NewConn(&back).Write(m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), frame) {
			t.Fatalf("frame %d (%v) wrote back differently:\n got %x\nwant %x", n, m.Type, back.Bytes(), frame)
		}
	}
	if n != len(want) || off != len(golden) {
		t.Fatalf("read %d frames over %d bytes, want %d over %d", n, off, len(want), len(golden))
	}
}
