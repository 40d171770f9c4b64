package evidence

import (
	"bytes"
	"testing"

	"pera/internal/rot"
)

// allocEvidence builds a representative signed chain for the allocation
// and aliasing tests below.
func allocEvidence(t testing.TB) (*Evidence, *rot.RoT) {
	t.Helper()
	r, err := rot.New("sw1")
	if err != nil {
		t.Fatal(err)
	}
	m1 := Measurement("sw1", "prog", "sw1", DetailProgram, rot.Digest{1: 1}, nil)
	m2 := Measurement("sw1", "tables", "sw1", DetailTables, rot.Digest{2: 2}, nil)
	return Sign(r, Seq(m1, m2)), r
}

// TestAppendSigMessageZeroAlloc pins the single-buffer signature message
// construction: appending into a buffer with sufficient capacity must not
// allocate at all, and SigMessageSize must predict the exact length so
// callers can size that buffer up front.
func TestAppendSigMessageZeroAlloc(t *testing.T) {
	ev, _ := allocEvidence(t)
	want := SigMessageSize("sw1", ev)
	buf := make([]byte, 0, want)
	if got := len(AppendSigMessage(buf, "sw1", ev)); got != want {
		t.Fatalf("SigMessageSize predicted %d, AppendSigMessage wrote %d", want, got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSigMessage(buf[:0], "sw1", ev)
	})
	if allocs != 0 {
		t.Fatalf("AppendSigMessage into presized buffer allocated %.1f/op, want 0", allocs)
	}
}

// TestSigMessageMatchesAppend keeps the two construction paths (the
// allocation-free append and the sizing helper) byte-identical.
func TestSigMessageMatchesAppend(t *testing.T) {
	ev, _ := allocEvidence(t)
	a := AppendSigMessage(nil, "sw1", ev)
	b := sigMessage("sw1", ev)
	if !bytes.Equal(a, b) {
		t.Fatalf("sigMessage and AppendSigMessage diverge:\n %x\n %x", a, b)
	}
}

// TestDecodeSharedDoesNotAliasInput is the zero-copy decoding contract:
// DecodeShared copies the wire bytes into one private slab, so zeroing
// the input after decode must leave the tree untouched.
func TestDecodeSharedDoesNotAliasInput(t *testing.T) {
	ev, _ := allocEvidence(t)
	wire := Encode(ev)
	dec, err := DecodeShared(wire)
	if err != nil {
		t.Fatal(err)
	}
	before := Encode(dec)
	for i := range wire {
		wire[i] = 0
	}
	after := Encode(dec)
	if !bytes.Equal(before, after) {
		t.Fatal("decoded tree aliases the input buffer")
	}
	if !bytes.Equal(before, Encode(ev)) {
		t.Fatal("decode round-trip changed the encoding")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMemoHitZeroAlloc pins the allocation-free memo hit: a lookup of a
// memoized triple, and a VerifySignaturesMemo walk whose every signature
// is memoized, allocate nothing.
func TestMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ev, r := allocEvidence(t)
	pub := r.Public()
	keys := KeyMap{"sw1": pub}
	memo := NewVerifyMemo(0)
	msg := AppendSigMessage(nil, ev.Signer, ev.Left)
	if !memo.Verify(pub, msg, ev.Signature) {
		t.Fatal("honest signature rejected")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		memo.Verify(pub, msg, ev.Signature)
	}); allocs != 0 {
		t.Fatalf("memo hit allocated %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := VerifySignaturesMemo(ev, keys, memo); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("all-hit VerifySignaturesMemo walk allocated %.1f/op, want 0", allocs)
	}
}
