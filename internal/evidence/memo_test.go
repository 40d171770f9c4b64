package evidence

import (
	"errors"
	"testing"
)

// TestMemoPrewarm pins the accounting VerifyEncoded keeps from the
// prewarm and walk it replaced (refPrewarm and refVerifySignatures):
// each new signature costs one miss, every signature walked one hit,
// known triples no verification, a forged signature is verified once and
// stored as FAIL, and an unknown outer signer stops the walk before any
// lookup. Each step runs on both and must leave the same counters.
func TestMemoPrewarm(t *testing.T) {
	s1, s2, s3 := testSigner("sw1"), testSigner("sw2"), testSigner("sw3")
	keys := KeyMap{"sw1": s1.Public(), "sw2": s2.Public(), "sw3": s3.Public()}
	chain := Sign(s3, Seq(Sign(s2, Seq(Sign(s1, sampleMeasurement()), Nonce([]byte("n")))), Empty()))
	forged := *chain
	forged.Signature = append([]byte(nil), chain.Signature...)
	forged.Signature[40] ^= 1
	stranger := Sign(testSigner("sw9"), Sign(s1, Nonce([]byte("fresh"))))

	memo, ref := NewVerifyMemo(0), NewVerifyMemo(0)
	for _, step := range []struct {
		name     string
		ev       *Evidence
		full     int
		err      error
		hits     uint64
		misses   uint64
		entries  int
		verified int
	}{
		{"new chain", chain, 3, nil, 3, 3, 3, 3},
		{"known chain", chain, 0, nil, 6, 3, 3, 3},
		{"forged outer signature", &forged, 1, ErrBadSignature, 7, 4, 4, 1},
		{"unknown outer signer", stranger, 0, ErrUnknownKey, 7, 4, 4, 0},
	} {
		n, full, err := memo.VerifyEncoded(Encode(step.ev), keys, nil)
		if full != step.full || !errors.Is(err, step.err) || (err == nil) != (step.err == nil) {
			t.Fatalf("%s: %d signatures, %d verified in full, %v; want %d in full, %v",
				step.name, n, full, err, step.full, step.err)
		}
		verified := refPrewarm(ref, step.ev, keys)
		refN, refErr := refVerifySignatures(step.ev, keys, ref)
		if verified != full || refN != n || (refErr == nil) != (err == nil) || err != nil && refErr.Error() != err.Error() {
			t.Fatalf("%s: walker %d/%d/%v, reference %d/%d/%v", step.name, n, full, err, refN, verified, refErr)
		}
		st, rst := memo.Stats(), ref.Stats()
		if st != rst || st.Hits != step.hits || st.Misses != step.misses || st.Entries != step.entries {
			t.Fatalf("%s: walker %+v, reference %+v, want %d hits, %d misses, %d entries",
				step.name, st, rst, step.hits, step.misses, step.entries)
		}
	}
	_, _, err := (*VerifyMemo)(nil).VerifyEncoded(Encode(chain), keys, nil) // no memo: all in full
	if err != nil {
		t.Fatal(err)
	}

	// Reset empties the memo in place: the same chain is new again.
	memo.Reset(0)
	if st := memo.Stats(); st != (MemoStats{}) {
		t.Fatalf("after Reset: %+v", st)
	}
	if _, full, _ := memo.VerifyEncoded(Encode(chain), keys, nil); full != 3 {
		t.Fatalf("after Reset: %d verified in full, want 3", full)
	}
}
