package evidence

import (
	"bytes"
	"runtime"
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

// TestDecodeDoesNotAliasInput is the zero-copy decoding contract: Decode
// copies the wire bytes into one private slab, so zeroing the input after
// decode must leave the tree untouched.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	ev, _ := allocEvidence(t)
	wire := Encode(ev)
	dec, err := Decode(wire)
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

// TestMemoHitZeroAlloc pins the allocation-free memo hit: a
// VerifyEncoded walk whose every signature is memoized allocates nothing,
// and neither does one over a tree's encoding that Validate, AppendEncode
// into reused scratch and the walk make together, the appraiser's tree
// entry.
func TestMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ev, r := allocEvidence(t)
	keys := KeyMap{"sw1": r.Public()}
	memo := NewVerifyMemo(0)
	enc := Encode(ev)
	if _, full, err := memo.VerifyEncoded(enc, keys, nil); full != 1 || err != nil {
		t.Fatalf("first walk: %d verified in full, %v", full, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, full, err := memo.VerifyEncoded(enc, keys, nil); full != 0 || err != nil {
			t.Fatalf("memoized walk: %d verified in full, %v", full, err)
		}
	}); allocs != 0 {
		t.Fatalf("all-hit VerifyEncoded walk allocated %.1f/op, want 0", allocs)
	}
	scratch := make([]byte, 0, len(enc))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Validate(ev); err != nil {
			t.Fatal(err)
		}
		scratch = AppendEncode(scratch[:0], ev)
		if _, _, err := memo.VerifyEncoded(scratch, keys, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("validate, encode and an all-hit walk allocated %.1f/op, want 0", allocs)
	}
}

// TestByteChainMatchesTree pins the byte helpers a PERA hop extends its
// chain with to the tree path: AppendSeq and SignEncoded over an
// encoding give exactly the encodings of Seq and Sign over its tree.
func TestByteChainMatchesTree(t *testing.T) {
	ev, r := allocEvidence(t)
	for _, l := range []*Evidence{Nonce([]byte("n")), ev, sampleTree(r)} {
		local := Hash(sampleMeasurement())
		seq := AppendSeq([]byte("prefix"), Encode(l), local)
		if want := AppendEncode([]byte("prefix"), Seq(l, local)); !bytes.Equal(seq, want) {
			t.Fatalf("AppendSeq\n%x\nwant\n%x", seq, want)
		}
		if got, want := SignEncoded(r, Encode(l)), Encode(Sign(r, l)); !bytes.Equal(got, want) {
			t.Fatalf("SignEncoded\n%x\nwant\n%x", got, want)
		}
	}
}

// TestScanZeroAlloc pins the hop's chain check: Scan over a well-formed
// chain allocates nothing.
func TestScanZeroAlloc(t *testing.T) {
	ev, _ := allocEvidence(t)
	wire := Encode(Seq(Nonce([]byte("n")), ev))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Scan(wire); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Scan allocated %.1f/op, want 0", allocs)
	}
}

// TestDecodeExactArena pins Decode's two allocations, the slab and a
// node arena of exactly the tree's size: a one-node tree takes a few
// hundred bytes, not a fixed block of nodes.
func TestDecodeExactArena(t *testing.T) {
	wire := Encode(Nonce([]byte("nonce-1")))
	decode := func() {
		if _, err := Decode(wire); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 2 {
		t.Fatalf("Decode allocated %.1f times/op, want 2", allocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 512 {
		t.Fatalf("Decode of one node allocated %d B/op, want at most 512", perOp)
	}
}
