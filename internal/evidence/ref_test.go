package evidence

import (
	"crypto/ed25519"
	"fmt"
	"slices"

	"pera/internal/rot"
)

// The tree verifier VerifyEncoded replaced, kept as the reference it is
// held to: a prewarm that verifies every signature new to the memo, then
// a walk over the tree that rebuilds each signature message and answers
// it from the memo (or, with no memo, verifies it in full).

// refVerify is the walk's memo lookup: a hit costs one key hash, a miss
// one full verification, counted as a miss.
func refVerify(m *VerifyMemo, pub ed25519.PublicKey, message, sig []byte) bool {
	if m == nil {
		return rot.Verify(pub, message, sig)
	}
	k := memoKeyOf(pub, message, sig)
	if v, ok := m.lookup(k); ok {
		m.hits.Add(1)
		return v
	}
	v := rot.Verify(pub, message, sig)
	m.insert(k, v)
	return v
}

// refPrewarm verifies every signature of e whose triple the memo does
// not know yet and returns how many it verified. A chain with an unknown
// signer or a malformed node seeds nothing.
func refPrewarm(m *VerifyMemo, e *Evidence, keys KeyResolver) (verified int) {
	var sigs []*Evidence
	var collect func(*Evidence) bool
	collect = func(e *Evidence) bool {
		if e == nil {
			return false
		}
		switch e.Kind {
		case KindEmpty, KindNonce, KindMeasurement, KindHash:
			return true
		case KindSig:
			if _, ok := keys.KeyFor(e.Signer); !ok {
				return false
			}
			sigs = append(sigs, e)
			return collect(e.Left)
		case KindSeq, KindPar:
			return collect(e.Left) && collect(e.Right)
		}
		return false
	}
	if !collect(e) {
		return 0
	}
	for _, ev := range sigs {
		pub, _ := keys.KeyFor(ev.Signer)
		msg := AppendSigMessage(nil, ev.Signer, ev.Left)
		k := memoKeyOf(pub, msg, ev.Signature)
		if _, ok := m.lookup(k); !ok {
			m.insert(k, rot.Verify(pub, msg, ev.Signature))
			verified++
		}
	}
	return verified
}

// refVerifySignatures walks e and checks every signature node against
// keys through the memo, returning the number checked.
func refVerifySignatures(e *Evidence, keys KeyResolver, memo *VerifyMemo) (int, error) {
	n := 0
	var walk func(*Evidence) error
	walk = func(ev *Evidence) error {
		if ev == nil {
			return ErrMalformed
		}
		switch ev.Kind {
		case KindEmpty, KindNonce, KindMeasurement, KindHash:
			return nil
		case KindSig:
			pub, ok := keys.KeyFor(ev.Signer)
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownKey, ev.Signer)
			}
			if !refVerify(memo, pub, AppendSigMessage(nil, ev.Signer, ev.Left), ev.Signature) {
				return fmt.Errorf("%w: signer %q", ErrBadSignature, ev.Signer)
			}
			n++
			return walk(ev.Left)
		case KindSeq, KindPar:
			if err := walk(ev.Left); err != nil {
				return err
			}
			return walk(ev.Right)
		default:
			return fmt.Errorf("%w: kind %v", ErrMalformed, ev.Kind)
		}
	}
	err := walk(e)
	return n, err
}

// refPathSigners returns the distinct signers of e in path order: a
// signature after everything it covers.
func refPathSigners(e *Evidence) []string {
	var out []string
	var walk func(*Evidence)
	walk = func(e *Evidence) {
		switch e.Kind {
		case KindSig:
			walk(e.Left)
			if !slices.Contains(out, e.Signer) {
				out = append(out, e.Signer)
			}
		case KindSeq, KindPar:
			walk(e.Left)
			walk(e.Right)
		}
	}
	walk(e)
	return out
}
