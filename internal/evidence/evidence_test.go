package evidence

import (
	"strings"
	"testing"
	"testing/quick"

	"pera/internal/rot"
)

func testSigner(name string) *rot.RoT {
	return rot.NewDeterministic(name, []byte(name+"-seed"))
}

func sampleMeasurement() *Evidence {
	return Measurement("attest", "firewall_v5.p4", "sw1", DetailProgram, rot.Sum([]byte("prog")), nil)
}

func sampleTree(s Signer) *Evidence {
	m1 := sampleMeasurement()
	m2 := Measurement("attest", "acl_v3.p4", "sw2", DetailProgram, rot.Sum([]byte("acl")), []byte("claims"))
	return Sign(s, Seq(Par(m1, m2), Nonce([]byte("nonce-1"))))
}

func TestConstructorsAndValidate(t *testing.T) {
	s := testSigner("sw1")
	cases := []*Evidence{
		Empty(),
		Nonce([]byte("n")),
		sampleMeasurement(),
		Hash(sampleMeasurement()),
		Sign(s, sampleMeasurement()),
		Seq(Empty(), Nonce(nil)),
		Par(sampleMeasurement(), Hash(Empty())),
		sampleTree(s),
	}
	for i, e := range cases {
		if err := Validate(e); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []*Evidence{
		nil,
		{Kind: KindSig},                        // sig without child
		{Kind: KindSeq, Left: Empty()},         // seq missing right
		{Kind: KindPar, Right: Empty()},        // par missing left
		{Kind: KindEmpty, Left: Empty()},       // leaf with child
		{Kind: Kind(99)},                       // unknown kind
		{Kind: KindSeq, Left: nil, Right: nil}, // empty seq
	}
	for i, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("case %d: malformed tree accepted", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSigner("sw1")
	trees := []*Evidence{
		Empty(),
		Nonce([]byte{1, 2, 3}),
		Nonce(nil),
		sampleMeasurement(),
		Hash(sampleTree(s)),
		sampleTree(s),
		SeqAll(Empty(), Nonce([]byte("a")), sampleMeasurement(), Sign(s, Empty())),
	}
	for i, e := range trees {
		enc := Encode(e)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !Equal(e, dec) {
			t.Fatalf("case %d: round trip mismatch:\n  in:  %v\n  out: %v", i, e, dec)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xff},                           // unknown kind
		{byte(KindNonce)},                // truncated length
		{byte(KindNonce), 0, 0, 0, 9, 1}, // length beyond data
		{byte(KindSig), 0, 0, 0, 0},      // truncated sig
		{byte(KindHash), 1, 2},           // truncated digest
		append(Encode(Empty()), 0),       // trailing byte
		{byte(KindNonce), 0xff, 0xff, 0xff, 0xff},                                       // oversized field
		{byte(KindMeasurement), 0, 0, 0, 1, 'a', 0, 0, 0, 1, 'b', 0, 0, 0, 1, 'c', 200}, // invalid detail
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	s := testSigner("sw1")
	trees := []*Evidence{Empty(), Nonce([]byte("xyz")), sampleMeasurement(), sampleTree(s), Hash(Empty())}
	for i, e := range trees {
		if got, want := EncodedSize(e), len(Encode(e)); got != want {
			t.Errorf("case %d: EncodedSize=%d len(Encode)=%d", i, got, want)
		}
	}
	if EncodedSize(nil) != len(Encode(nil)) {
		t.Error("nil size mismatch")
	}
}

func TestSignVerify(t *testing.T) {
	s := testSigner("sw1")
	tree := sampleTree(s)
	keys := KeyMap{"sw1": s.Public()}
	n, err := VerifySignatures(tree, keys)
	if err != nil {
		t.Fatalf("good tree rejected: %v", err)
	}
	if n != 1 {
		t.Fatalf("checked %d signatures, want 1", n)
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	s := testSigner("sw1")
	keys := KeyMap{"sw1": s.Public()}

	tree := sampleTree(s)
	// Tamper with the signed payload.
	tree.Left.Left.Left.Value[0] ^= 1
	if _, err := VerifySignatures(tree, keys); err == nil {
		t.Fatal("tampered payload verified")
	}

	// Unknown signer.
	other := Sign(testSigner("sw9"), Empty())
	if _, err := VerifySignatures(other, keys); err == nil {
		t.Fatal("unknown signer verified")
	}

	// Signature transplanted to a different signer name must fail
	// (signer binding).
	tr := Sign(s, Empty())
	tr.Signer = "sw2"
	keys2 := KeyMap{"sw2": s.Public()}
	if _, err := VerifySignatures(tr, keys2); err == nil {
		t.Fatal("transplanted signature verified")
	}
}

func TestVerifyCountsNestedSignatures(t *testing.T) {
	a, b := testSigner("a"), testSigner("b")
	tree := Sign(b, Seq(Sign(a, sampleMeasurement()), Nonce([]byte("n"))))
	keys := KeyMap{"a": a.Public(), "b": b.Public()}
	n, err := VerifySignatures(tree, keys)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("checked %d signatures, want 2", n)
	}
}

func TestAccessors(t *testing.T) {
	s := testSigner("sw1")
	tree := sampleTree(s)
	ms := Measurements(tree)
	if len(ms) != 2 {
		t.Fatalf("measurements: %d, want 2", len(ms))
	}
	if ms[0].Target != "firewall_v5.p4" || ms[1].Target != "acl_v3.p4" {
		t.Fatalf("measurement order wrong: %v", ms)
	}
	ns := Nonces(tree)
	if len(ns) != 1 || string(ns[0]) != "nonce-1" {
		t.Fatalf("nonces: %v", ns)
	}
	if sg := Signers(tree); len(sg) != 1 || sg[0] != "sw1" {
		t.Fatalf("signers: %v", sg)
	}
	if Size(tree) != 6 {
		t.Fatalf("size = %d, want 6", Size(tree))
	}
	if Depth(tree) != 4 {
		t.Fatalf("depth = %d, want 4", Depth(tree))
	}
	if Size(nil) != 0 || Depth(nil) != 0 {
		t.Fatal("nil size/depth wrong")
	}
}

func TestSeqAll(t *testing.T) {
	if SeqAll().Kind != KindEmpty {
		t.Fatal("empty SeqAll not Empty")
	}
	one := Nonce([]byte("x"))
	if SeqAll(one) != one {
		t.Fatal("single SeqAll not identity")
	}
	three := SeqAll(Empty(), Empty(), Empty())
	if Size(three) != 5 {
		t.Fatalf("SeqAll(3) size %d, want 5", Size(three))
	}
}

func TestStringRendering(t *testing.T) {
	s := testSigner("sw1")
	str := sampleTree(s).String()
	for _, want := range []string{"sig[sw1]", "msmt[attest firewall_v5.p4@sw1", "nonce(", "par(", "seq("} {
		if !strings.Contains(str, want) {
			t.Errorf("rendering %q missing %q", str, want)
		}
	}
	var nilEv *Evidence
	_ = nilEv // String on nil pointer is not required; skip.
}

func TestHashCollapsesAndCommits(t *testing.T) {
	m := sampleMeasurement()
	h := Hash(m)
	if h.Left != nil {
		t.Fatal("hash node must not retain subtree")
	}
	if h.Digest != DigestOf(m) {
		t.Fatal("hash digest mismatch")
	}
	m2 := sampleMeasurement()
	m2.Target = "other"
	if Hash(m2).Digest == h.Digest {
		t.Fatal("different subtrees share hash")
	}
}

// Property: encode/decode is the identity on arbitrary generated trees.
func TestPropertyCodecRoundTrip(t *testing.T) {
	s := testSigner("p")
	f := func(nonce []byte, target string, detail uint8, depth uint8) bool {
		d := Detail(detail % uint8(detailCount))
		e := Measurement("m", target, "pl", d, rot.Sum(nonce), nonce)
		var tree *Evidence = e
		for i := uint8(0); i < depth%6; i++ {
			switch i % 3 {
			case 0:
				tree = Seq(tree, Nonce(nonce))
			case 1:
				tree = Par(Hash(tree), tree)
			case 2:
				tree = Sign(s, tree)
			}
		}
		dec, err := Decode(Encode(tree))
		return err == nil && Equal(tree, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: digests are stable (same tree, same digest) and sensitive to
// content changes.
func TestPropertyDigestBinding(t *testing.T) {
	f := func(a, b string) bool {
		e1 := Measurement("m", a, "p", DetailProgram, rot.Sum([]byte(a)), nil)
		e1b := Measurement("m", a, "p", DetailProgram, rot.Sum([]byte(a)), nil)
		if DigestOf(e1) != DigestOf(e1b) {
			return false
		}
		if a == b {
			return true
		}
		e2 := Measurement("m", b, "p", DetailProgram, rot.Sum([]byte(b)), nil)
		return DigestOf(e1) != DigestOf(e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Seq and Par are not commutative in the encoding — order is
// evidence. (The appraiser relies on this to detect reordered paths.)
func TestPropertySeqOrderMatters(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		x := Measurement("m", a, "p", DetailProgram, rot.Sum([]byte(a)), nil)
		y := Measurement("m", b, "p", DetailProgram, rot.Sum([]byte(b)), nil)
		return !Equal(Seq(x, y), Seq(y, x)) && !Equal(Par(x, y), Par(y, x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
