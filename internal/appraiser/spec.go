package appraiser

import (
	"fmt"

	"pera/internal/evidence"
)

// Spec is a declarative appraisal policy: one object that states
// everything a relying party requires of a piece of evidence. It bundles
// the appraiser's base checks (signatures, golden values, freshness) with
// structural requirements (which principals signed, what the path looked
// like), so operators can ship appraisal policy as data.
type Spec struct {
	// Subject is recorded in the issued certificate.
	Subject string
	// RequiredSigners, when non-empty, is the exact ordered list of
	// distinct signers the evidence must carry (outermost first).
	RequiredSigners []string
	// MinSignatures requires at least this many signature nodes.
	MinSignatures int
	// Expectations are path requirements checked via CheckPath.
	Expectations []Expectation
	// ExactPath requires the expectations to match measurements
	// one-to-one rather than as a subsequence.
	ExactPath bool
	// RequireNonce demands the session nonce appear in the evidence.
	RequireNonce bool
}

// AppraiseWith appraises ev under both the appraiser's base checks and
// the spec's structural requirements, issuing a single certificate whose
// verdict is the conjunction.
func (a *Appraiser) AppraiseWith(spec Spec, ev *evidence.Evidence, nonce []byte) (*Certificate, error) {
	// Temporarily honor the spec's nonce requirement without mutating
	// shared state: evaluate it here.
	cert, err := a.Appraise(spec.Subject, ev, nonce)
	if err != nil {
		return nil, err
	}
	if !cert.Verdict {
		return cert, nil
	}
	fail := func(reason string) (*Certificate, error) {
		c := *cert
		c.Verdict = false
		c.Reason = reason
		// Re-sign the amended certificate under a fresh serial.
		c.Serial = a.serial.Add(1)
		a.sign(&c)
		return &c, nil
	}

	if spec.RequireNonce && len(nonce) > 0 {
		found := false
		for _, n := range evidence.Nonces(ev) {
			if string(n) == string(nonce) {
				found = true
				break
			}
		}
		if !found {
			return fail(ErrNonceMissing.Error())
		}
	}
	if n := len(evidence.Signers(ev)); spec.MinSignatures > 0 && n < spec.MinSignatures {
		return fail(fmt.Sprintf("spec: %d signers, need at least %d", n, spec.MinSignatures))
	}
	if len(spec.RequiredSigners) > 0 {
		if err := CheckSigners(ev, spec.RequiredSigners); err != nil {
			return fail("spec: " + err.Error())
		}
	}
	if len(spec.Expectations) > 0 || spec.ExactPath {
		if err := CheckPath(ev, spec.Expectations, spec.ExactPath); err != nil {
			return fail("spec: " + err.Error())
		}
	}
	return cert, nil
}
