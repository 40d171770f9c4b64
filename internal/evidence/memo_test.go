package evidence

import (
	"errors"
	"testing"
)

// TestMemoPrewarm pins the prewarm's accounting: each new signature
// costs one miss (and counts in what Prewarm returns) and the walk that
// follows answers it as one hit; known triples cost nothing; a chain
// with an unknown signer seeds nothing.
func TestMemoPrewarm(t *testing.T) {
	s1, s2, s3 := testSigner("sw1"), testSigner("sw2"), testSigner("sw3")
	keys := KeyMap{"sw1": s1.Public(), "sw2": s2.Public(), "sw3": s3.Public()}
	chain := Sign(s3, Seq(Sign(s2, Seq(Sign(s1, sampleMeasurement()), Nonce([]byte("n")))), Empty()))
	memo := NewVerifyMemo(0)
	(*VerifyMemo)(nil).Prewarm(chain, keys) // nil-safe

	if n := memo.Prewarm(chain, keys); n != 3 {
		t.Fatalf("first prewarm verified %d signatures, want 3", n)
	}
	if st := memo.Stats(); st.Misses != 3 || st.Hits != 0 || st.Entries != 3 {
		t.Fatalf("after prewarm: %+v, want 3 misses, 0 hits, 3 entries", st)
	}
	if n, err := VerifySignaturesMemo(chain, keys, memo); n != 3 || err != nil {
		t.Fatalf("walk: %d, %v", n, err)
	}
	if n := memo.Prewarm(chain, keys); n != 0 {
		t.Fatalf("second prewarm verified %d signatures, want 0", n)
	}
	if st := memo.Stats(); st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("after walk and a second prewarm: %+v, want 3 misses, 3 hits", st)
	}

	// A forged outer signature is verified once, stored as FAIL, and the
	// walk fails on it.
	forged := *chain
	forged.Signature = append([]byte(nil), chain.Signature...)
	forged.Signature[40] ^= 1
	if n := memo.Prewarm(&forged, keys); n != 1 {
		t.Fatalf("forged prewarm verified %d signatures, want 1", n)
	}
	if _, err := VerifySignaturesMemo(&forged, keys, memo); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged walk: %v", err)
	}
	if st := memo.Stats(); st.Misses != 4 || st.Hits != 4 {
		t.Fatalf("after the forged chain: %+v, want 4 misses, 4 hits", st)
	}

	// An unknown signer anywhere seeds nothing, not even the known inner
	// signature.
	stranger := Sign(testSigner("sw9"), Sign(s1, Nonce([]byte("fresh"))))
	if n := memo.Prewarm(stranger, keys); n != 0 {
		t.Fatalf("unknown-signer prewarm verified %d signatures, want 0", n)
	}
	if st := memo.Stats(); st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("unknown signer seeded: %+v", st)
	}
}
