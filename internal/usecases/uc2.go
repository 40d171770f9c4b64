package usecases

import (
	"fmt"

	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/rot"
)

// UC2 — Path Evidence as a Security Factor. "A user that forgets their
// password or connects from a new device could be permitted limited
// access to a resource if they can prove that they are connecting from
// their home via an acceptable network path."
//
// The bank enrolls the client's home path by recording the PathTag of
// appraised evidence from a known-good session; later, a password-less
// login is granted limited access iff fresh path evidence carries the
// same tag and verifies end to end.

// PathAuthenticator is the bank-side factor checker.
type PathAuthenticator struct {
	appr     *appraiser.Appraiser
	keys     evidence.KeyMap
	enrolled map[string]rot.Digest // user → home-path tag
}

// NewPathAuthenticator creates the factor checker with the appraiser and
// attester keys it trusts.
func NewPathAuthenticator(appr *appraiser.Appraiser, keys evidence.KeyMap) *PathAuthenticator {
	return &PathAuthenticator{appr: appr, keys: keys, enrolled: map[string]rot.Digest{}}
}

// Enroll records the user's home-path tag from a trusted session's
// evidence (e.g. collected while the user was fully authenticated).
func (pa *PathAuthenticator) Enroll(user string, ev *evidence.Evidence) error {
	if _, err := evidence.VerifySignatures(ev, pa.keys); err != nil {
		return fmt.Errorf("uc2: enrollment evidence: %w", err)
	}
	pa.enrolled[user] = appraiser.PathTag(ev)
	return nil
}

// AuthDecision is the outcome of a path-factor check.
type AuthDecision struct {
	Granted bool
	Limited bool // true: path factor only → limited access
	Reason  string
}

// Authenticate checks fresh path evidence for a password-less login.
func (pa *PathAuthenticator) Authenticate(user string, ev *evidence.Evidence, nonce []byte) (*AuthDecision, error) {
	want, ok := pa.enrolled[user]
	if !ok {
		return &AuthDecision{Reason: "user has no enrolled home path"}, nil
	}
	cert, err := pa.appr.Appraise("uc2:"+user, ev, nonce)
	if err != nil {
		return nil, err
	}
	if !cert.Verdict {
		return &AuthDecision{Reason: "path evidence failed appraisal: " + cert.Reason}, nil
	}
	if appraiser.PathTag(ev) != want {
		return &AuthDecision{Reason: "path differs from enrolled home path"}, nil
	}
	return &AuthDecision{Granted: true, Limited: true, Reason: "home-path factor matched"}, nil
}

// CollectPathEvidence runs one attested round client→bank and returns the
// chained evidence the bank received.
func CollectPathEvidence(tb *Testbed, nonce []byte) (*evidence.Evidence, error) {
	hdr, err := SendUC1(tb, nonce, false, 50000, []byte("login"))
	if err != nil {
		return nil, err
	}
	return hdr.Evidence, nil
}
