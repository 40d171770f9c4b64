package evidence

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// Mutation robustness: decoding arbitrarily corrupted evidence must
// return an error or a valid tree — never panic, never hang, never
// allocate unboundedly. A PERA switch parses these bytes off the wire
// from untrusted peers.
func TestDecodeMutationRobustness(t *testing.T) {
	s := testSigner("sw1")
	base := Encode(sampleTree(s))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), base...)
		// Apply 1-4 random mutations: flip, truncate, extend.
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
		ev, err := Decode(data)
		if err == nil {
			// If it decoded, it must be structurally valid and
			// re-encodable.
			if verr := Validate(ev); verr != nil {
				t.Fatalf("mutation %d: decoded invalid tree: %v", i, verr)
			}
			_ = Encode(ev)
		}
	}
}

// Random byte strings (not derived from valid encodings).
func TestDecodeRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		if ev, err := Decode(data); err == nil {
			if verr := Validate(ev); verr != nil {
				t.Fatalf("random %d: invalid tree accepted: %v", i, verr)
			}
		}
	}
}

// Deeply nested trees must decode within the node bound, not recurse
// to a stack overflow.
func TestDecodeDeepNesting(t *testing.T) {
	// A long chain of sig nodes (each 1 child).
	var data []byte
	depth := maxNodes + 10
	for i := 0; i < depth; i++ {
		data = append(data, byte(KindSig))
		data = append(data, 0, 0, 0, 1, 'x') // signer "x"
		data = append(data, 0, 0, 0, 0)      // empty signature
	}
	data = append(data, byte(KindEmpty))
	if _, err := Decode(data); err == nil {
		t.Fatal("over-deep tree decoded")
	}
}

// FuzzDecode feeds hostile bytes to Decode and to Scan, the walker a
// PERA hop checks its chain with. Both must accept exactly the same
// inputs, and every accepted input must re-encode byte for byte, with
// EncodedSize equal to its length: the encoding is canonical, so one tree
// has one byte string. Scan must count the tree's nodes and find its
// first nonce as the tree functions do. The signature walker over the
// bytes must agree with the tree reference over the decoded tree, with
// its memo cold and then warm: the same signature count, error text and
// path-ordered signers, and SHA-256 of the input is the tree's DigestOf.
// The seed corpus in testdata/fuzz/FuzzDecode also runs under plain go
// test.
func FuzzDecode(f *testing.F) {
	keys := KeyMap{}
	for _, name := range []string{"sw1", "sw2", "sw3"} {
		keys[name] = testSigner(name).Public()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := Decode(data)
		nodes, nonce, scanErr := Scan(data)
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("Decode error %v, Scan error %v", err, scanErr)
		}
		if err != nil {
			if !errors.Is(scanErr, ErrDecode) {
				t.Fatalf("Scan error %v does not wrap ErrDecode", scanErr)
			}
			return
		}
		if n := Size(ev); nodes != n {
			t.Fatalf("Scan counted %d nodes, the tree has %d", nodes, n)
		}
		if first := FirstNonce(ev); !bytes.Equal(nonce, first) || (nonce == nil) != (first == nil) {
			t.Fatalf("Scan's first nonce %x, FirstNonce %x", nonce, first)
		}
		if enc := Encode(ev); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, enc)
		}
		if n := EncodedSize(ev); n != len(data) {
			t.Fatalf("accepted %d bytes, EncodedSize %d", len(data), n)
		}
		if sha256.Sum256(data) != DigestOf(ev) {
			t.Fatal("SHA-256 of the encoding differs from DigestOf")
		}
		refN, refErr := refVerifySignatures(ev, keys, nil)
		memo := NewVerifyMemo(0)
		for _, temp := range []string{"cold", "warm"} {
			var signers []string
			n, _, err := memo.VerifyEncoded(data, keys, &signers)
			if n != refN || (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("%s memo: walker %d, %v; reference %d, %v", temp, n, err, refN, refErr)
			}
			if want := refPathSigners(ev); err == nil && !slices.Equal(signers, want) {
				t.Fatalf("%s memo: signers %q, reference %q", temp, signers, want)
			}
		}
	})
}
