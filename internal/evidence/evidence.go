// Package evidence defines the evidence values produced and consumed by
// remote attestation in the PERA reproduction, together with the paper's
// Fig. 4 design-space controls: evidence Detail levels with associated
// Inertia, Sampling frequency, and Composition mode.
//
// Evidence is a tree, mirroring the result structure of Copland evaluation
// (Helble et al., "Flexible Mechanisms for Remote Attestation"):
//
//	E ::= empty | nonce(n) | measurement(m, t, place, value)
//	    | hash(E) | sig_place(E) | seq(E1, E2) | par(E1, E2)
//
// Hashing collapses a subtree to its digest (the paper's # operator);
// signing wraps a subtree with a platform signature (the ! operator); seq
// and par record how sub-evidence was composed. The tree serializes to a
// canonical byte form (codec.go) over which digests and signatures are
// computed, so evidence is independently appraisable after any number of
// network hops.
package evidence

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"

	"pera/internal/rot"
)

// Kind discriminates evidence tree nodes.
type Kind uint8

// Evidence node kinds.
const (
	KindEmpty Kind = iota
	KindNonce
	KindMeasurement
	KindHash
	KindSig
	KindSeq
	KindPar
)

var kindNames = [...]string{"empty", "nonce", "measurement", "hash", "sig", "seq", "par"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Evidence is one node of an evidence tree. Exactly the fields relevant to
// its Kind are populated. Evidence values are treated as immutable once
// built; helpers return new nodes rather than mutating.
type Evidence struct {
	Kind Kind

	// KindNonce
	Nonce []byte

	// KindMeasurement
	Measurer string // measuring principal (e.g. "av", "pera-sw1")
	Target   string // measured object (e.g. "bmon", "firewall_v5.p4")
	Place    string // where the measurement ran (e.g. "ks", "sw1")
	Detail   Detail // what class of state was measured (Fig 4)
	Value    rot.Digest
	Claims   []byte // optional raw claim payload (e.g. serialized quote)

	// KindHash
	Digest rot.Digest

	// KindSig
	Signer    string
	Signature []byte

	// KindHash wraps nothing further (the subtree is collapsed);
	// KindSig, KindSeq and KindPar carry children.
	Left  *Evidence // sig/seq/par: first (or only) child
	Right *Evidence // seq/par: second child
}

// Errors reported by evidence operations.
var (
	ErrBadSignature = errors.New("evidence: signature verification failed")
	ErrUnknownKey   = errors.New("evidence: no key known for signer")
	ErrMalformed    = errors.New("evidence: malformed tree")
)

// Empty returns the empty evidence value.
func Empty() *Evidence { return &Evidence{Kind: KindEmpty} }

// Nonce returns nonce evidence binding n.
func Nonce(n []byte) *Evidence {
	return &Evidence{Kind: KindNonce, Nonce: append([]byte(nil), n...)}
}

// Measurement builds measurement evidence: measurer measured target at
// place, observing value. claims may carry a serialized quote or other raw
// appraisal input and may be nil.
func Measurement(measurer, target, place string, detail Detail, value rot.Digest, claims []byte) *Evidence {
	return &Evidence{
		Kind:     KindMeasurement,
		Measurer: measurer,
		Target:   target,
		Place:    place,
		Detail:   detail,
		Value:    value,
		Claims:   append([]byte(nil), claims...),
	}
}

// Hash collapses e to its digest — the Copland # operator. The resulting
// node carries only the digest of e's canonical encoding.
func Hash(e *Evidence) *Evidence {
	return &Evidence{Kind: KindHash, Digest: DigestOf(e)}
}

// Seq composes evidence gathered sequentially (left then right).
func Seq(l, r *Evidence) *Evidence { return &Evidence{Kind: KindSeq, Left: l, Right: r} }

// Par composes evidence gathered in parallel.
func Par(l, r *Evidence) *Evidence { return &Evidence{Kind: KindPar, Left: l, Right: r} }

// SeqAll folds a slice into a left-leaning Seq chain. An empty slice
// yields Empty; a single element is returned as-is.
func SeqAll(es ...*Evidence) *Evidence {
	switch len(es) {
	case 0:
		return Empty()
	case 1:
		return es[0]
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Seq(out, e)
	}
	return out
}

// encBufPool recycles encode scratch buffers across DigestOf and
// signature-message construction; the encodings are consumed before the
// buffer is returned, so nothing retains them.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// DigestOf returns the SHA-256 digest of e's canonical encoding.
func DigestOf(e *Evidence) rot.Digest {
	bp := encBufPool.Get().(*[]byte)
	b := AppendEncode((*bp)[:0], e)
	d := sha256.Sum256(b)
	*bp = b[:0]
	encBufPool.Put(bp)
	return d
}

// Signer abstracts the signing capability evidence needs — satisfied by
// *rot.RoT and by host attester identities.
type Signer interface {
	Name() string
	Sign(message []byte) []byte
}

// Sign wraps e in a signature by s — the Copland ! operator. The signature
// covers e's canonical encoding prefixed by the signer name, so a signature
// cannot be transplanted between principals.
func Sign(s Signer, e *Evidence) *Evidence {
	bp := encBufPool.Get().(*[]byte)
	msg := AppendSigMessage((*bp)[:0], s.Name(), e)
	sig := s.Sign(msg)
	*bp = msg[:0]
	encBufPool.Put(bp)
	return &Evidence{Kind: KindSig, Signer: s.Name(), Signature: sig, Left: e}
}

// SignEncoded is Sign over a tree given as its canonical encoding enc:
// it signs the same message Sign would and returns the canonical encoding
// of the signed node, byte for byte Encode(Sign(s, tree)). A PERA hop
// signs the chain it extended as bytes this way, without decoding it.
func SignEncoded(s Signer, enc []byte) []byte {
	name := s.Name()
	bp := encBufPool.Get().(*[]byte)
	msg := append(appendSigPrefix((*bp)[:0], name), enc...)
	sig := s.Sign(msg)
	*bp = msg[:0]
	encBufPool.Put(bp)
	out := make([]byte, 0, 1+4+len(name)+4+len(sig)+len(enc))
	out = appendSigFields(append(out, byte(KindSig)), name, sig)
	return append(out, enc...)
}

const sigDomain = "PERA-EVSIG\x00"

// appendSigPrefix appends what a signature message carries before the
// signed tree's encoding: the domain tag, the signer name and a NUL.
func appendSigPrefix(buf []byte, signer string) []byte {
	buf = append(buf, sigDomain...)
	buf = append(buf, signer...)
	return append(buf, 0)
}

// AppendSigMessage appends the exact byte string a signature over e by
// signer covers — domain tag, signer name, NUL, canonical encoding — to
// buf in a single pass, and returns the extended slice. It is the
// allocation-free form of the old two-buffer sigMessage construction.
func AppendSigMessage(buf []byte, signer string, e *Evidence) []byte {
	return appendEvidence(appendSigPrefix(buf, signer), e)
}

// SigMessageSize returns len(AppendSigMessage(nil, signer, e)) without
// building it, so callers can size a buffer exactly.
func SigMessageSize(signer string, e *Evidence) int {
	return len(sigDomain) + len(signer) + 1 + EncodedSize(e)
}

func sigMessage(signer string, e *Evidence) []byte {
	b := make([]byte, 0, SigMessageSize(signer, e))
	return AppendSigMessage(b, signer, e)
}

// KeyResolver maps a signer name to its verification key. Appraisers
// implement this against their AIK certificate store.
type KeyResolver interface {
	KeyFor(signer string) (ed25519.PublicKey, bool)
}

// KeyMap is a KeyResolver backed by a map.
type KeyMap map[string]ed25519.PublicKey

// KeyFor implements KeyResolver.
func (m KeyMap) KeyFor(signer string) (ed25519.PublicKey, bool) {
	k, ok := m[signer]
	return k, ok
}

// VerifySignatures checks every signature node of e against keys and
// returns the number checked: it validates e, encodes it once into pooled
// scratch and walks the encoding (VerifyEncoded, with no memo). A single
// bad or unkeyed signature fails the whole tree: path evidence is only as
// strong as its weakest link.
func VerifySignatures(e *Evidence, keys KeyResolver) (int, error) {
	if err := Validate(e); err != nil {
		return 0, err
	}
	bp := encBufPool.Get().(*[]byte)
	*bp = AppendEncode((*bp)[:0], e)
	n, _, err := (*VerifyMemo)(nil).VerifyEncoded(*bp, keys, nil)
	encBufPool.Put(bp)
	return n, err
}

// Measurements returns all measurement nodes in e, left-to-right. This is
// the appraiser's view of "what was claimed along the path".
func Measurements(e *Evidence) []*Evidence {
	var out []*Evidence
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindMeasurement:
			out = append(out, ev)
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// FirstNonce returns the value of the first nonce node in e that is not
// empty, or nil. It is the flow ID rule every plane shares: its hex
// (rats.FlowID) keys the switch's hops, the appraiser's and the pool's
// trace correlation.
func FirstNonce(e *Evidence) []byte {
	var out []byte
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil || out != nil {
			return
		}
		switch ev.Kind {
		case KindNonce:
			if len(ev.Nonce) > 0 {
				out = ev.Nonce
			}
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Nonces returns all nonce values appearing in e.
func Nonces(e *Evidence) [][]byte {
	var out [][]byte
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindNonce:
			out = append(out, ev.Nonce)
		case KindSig:
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Signers returns the distinct signer names in e, in first-seen order.
// For path evidence this is the set of attesting elements traversed.
func Signers(e *Evidence) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*Evidence)
	walk = func(ev *Evidence) {
		if ev == nil {
			return
		}
		switch ev.Kind {
		case KindSig:
			if !seen[ev.Signer] {
				seen[ev.Signer] = true
				out = append(out, ev.Signer)
			}
			walk(ev.Left)
		case KindSeq, KindPar:
			walk(ev.Left)
			walk(ev.Right)
		}
	}
	walk(e)
	return out
}

// Size returns the number of nodes in the tree.
func Size(e *Evidence) int {
	if e == nil {
		return 0
	}
	n := 1
	switch e.Kind {
	case KindSig:
		n += Size(e.Left)
	case KindSeq, KindPar:
		n += Size(e.Left) + Size(e.Right)
	}
	return n
}

// Depth returns the height of the tree; Empty has depth 1.
func Depth(e *Evidence) int {
	if e == nil {
		return 0
	}
	switch e.Kind {
	case KindSig:
		return 1 + Depth(e.Left)
	case KindSeq, KindPar:
		l, r := Depth(e.Left), Depth(e.Right)
		if l > r {
			return 1 + l
		}
		return 1 + r
	default:
		return 1
	}
}

// Validate checks structural well-formedness: children present exactly
// where the kind requires them.
func Validate(e *Evidence) error {
	if e == nil {
		return ErrMalformed
	}
	switch e.Kind {
	case KindEmpty, KindNonce, KindMeasurement, KindHash:
		if e.Left != nil || e.Right != nil {
			return fmt.Errorf("%w: leaf kind %v has children", ErrMalformed, e.Kind)
		}
		return nil
	case KindSig:
		if e.Left == nil || e.Right != nil {
			return fmt.Errorf("%w: sig needs exactly one child", ErrMalformed)
		}
		return Validate(e.Left)
	case KindSeq, KindPar:
		if e.Left == nil || e.Right == nil {
			return fmt.Errorf("%w: %v needs two children", ErrMalformed, e.Kind)
		}
		if err := Validate(e.Left); err != nil {
			return err
		}
		return Validate(e.Right)
	default:
		return fmt.Errorf("%w: unknown kind %v", ErrMalformed, e.Kind)
	}
}

// String renders the tree in a compact Copland-like notation for logs and
// debugging, e.g. `sig[sw1](seq(msmt[attest sw1/prog], nonce))`.
func (e *Evidence) String() string {
	var b strings.Builder
	writeString(&b, e)
	return b.String()
}

func writeString(b *strings.Builder, e *Evidence) {
	if e == nil {
		b.WriteString("<nil>")
		return
	}
	switch e.Kind {
	case KindEmpty:
		b.WriteString("empty")
	case KindNonce:
		fmt.Fprintf(b, "nonce(%x)", shortBytes(e.Nonce))
	case KindMeasurement:
		fmt.Fprintf(b, "msmt[%s %s@%s %s=%v]", e.Measurer, e.Target, e.Place, e.Detail, e.Value)
	case KindHash:
		fmt.Fprintf(b, "#%v", e.Digest)
	case KindSig:
		fmt.Fprintf(b, "sig[%s](", e.Signer)
		writeString(b, e.Left)
		b.WriteString(")")
	case KindSeq:
		b.WriteString("seq(")
		writeString(b, e.Left)
		b.WriteString(", ")
		writeString(b, e.Right)
		b.WriteString(")")
	case KindPar:
		b.WriteString("par(")
		writeString(b, e.Left)
		b.WriteString(", ")
		writeString(b, e.Right)
		b.WriteString(")")
	}
}

func shortBytes(b []byte) []byte {
	if len(b) > 4 {
		return b[:4]
	}
	return b
}

// Equal reports deep equality of two evidence trees via their canonical
// encodings.
func Equal(a, b *Evidence) bool {
	if a == nil || b == nil {
		return a == b
	}
	return string(Encode(a)) == string(Encode(b))
}
