package pera

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pera/internal/evidence"
)

// In-band evidence header (§5.2, Fig. 2's in-band variant).
//
// The relying party serializes a compiled attestation policy "into an
// options header in the transport layer, to be evaluated along the path
// of traffic that it is sending out". In this simulation the header is
// prepended to the frame; a PERA switch pops it on ingress (Fig. 3 case
// A), composes its evidence into it, and pushes it back on egress (case
// D). Non-attesting elements forward the frame untouched — the header
// survives because it travels as opaque leading bytes of the payload from
// their point of view. (The netsim substrate delivers whole frames, so a
// plain pisa switch would fail to parse the header as Ethernet; in the
// simulated topologies, non-attesting hops are modelled as appliances or
// PERA switches with attestation disabled, which both pass the header
// through intact.)

// headerMagic marks a PERA in-band header.
var headerMagic = [4]byte{'P', 'E', 'R', 'A'}

// headerVersion is the one wire version: policy and evidence sections.
// Any other version byte is refused.
const headerVersion = 1

// Header is the in-band unit: the policy being executed and the
// evidence accumulated so far along the path.
type Header struct {
	Policy   *Policy
	Evidence *evidence.Evidence

	// chain is the evidence section as its canonical encoding, valid only
	// while Evidence is nil: a switch's Receive checks the section with
	// evidence.Scan and extends it as bytes instead of decoding it. It
	// may alias the received frame, so it never leaves Receive. nonce is
	// the chain's first non-empty nonce, which that Scan returns: the
	// frame's flow ID (rats.FlowID) is its hex.
	chain []byte
	nonce []byte

	// rawPolicy caches the encoded policy bytes recovered by Pop, valid
	// while Policy still points at rawPolicyOf. The policy travels the
	// whole path unchanged, so every per-hop Push would otherwise
	// re-encode identical bytes — on the hot path that re-encoding
	// dominated header construction.
	rawPolicy   []byte
	rawPolicyOf *Policy
}

// encodedPolicy returns the policy wire bytes, reusing the bytes Pop
// recovered when the policy has not been replaced since.
func (h *Header) encodedPolicy() []byte {
	if h.rawPolicy != nil && h.rawPolicyOf == h.Policy {
		return h.rawPolicy
	}
	return h.Policy.Encode()
}

// evidenceSize is the encoded size of the evidence section.
func (h *Header) evidenceSize() int {
	if h.Evidence == nil && h.chain != nil {
		return len(h.chain)
	}
	return evidence.EncodedSize(h.Evidence)
}

// appendEvidence appends the evidence section's canonical encoding.
func (h *Header) appendEvidence(b []byte) []byte {
	if h.Evidence == nil && h.chain != nil {
		return append(b, h.chain...)
	}
	return evidence.AppendEncode(b, h.Evidence)
}

// Errors from header codec.
var (
	ErrNoHeader     = errors.New("pera: frame carries no PERA header")
	ErrHeaderDecode = errors.New("pera: header decode error")
)

// HasHeader reports whether frame starts with a PERA in-band header.
func HasHeader(frame []byte) bool {
	return len(frame) >= 4 && frame[0] == headerMagic[0] && frame[1] == headerMagic[1] &&
		frame[2] == headerMagic[2] && frame[3] == headerMagic[3]
}

// Push prepends a header to inner, producing the on-wire frame. The
// evidence tree is encoded straight into the output buffer (one exact
// allocation) rather than via an intermediate Encode slice.
func Push(h *Header, inner []byte) []byte {
	pol := h.encodedPolicy()
	evSize := h.evidenceSize()
	out := make([]byte, 0, 4+1+4+len(pol)+4+evSize+len(inner))
	out = append(out, headerMagic[:]...)
	out = append(out, headerVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(pol)))
	out = append(out, pol...)
	out = binary.BigEndian.AppendUint32(out, uint32(evSize))
	out = h.appendEvidence(out)
	return append(out, inner...)
}

// Pop parses and removes the header, returning it and the inner frame.
// The evidence section is decoded with evidence.Decode; neither
// the header nor its evidence aliases frame, so callers may reuse the
// buffer after Pop returns. Only the inner frame is a slice of it.
func Pop(frame []byte) (*Header, []byte, error) {
	h, inner, err := popSections(frame)
	if err != nil {
		return nil, nil, err
	}
	ev, err := evidence.Decode(h.chain)
	if err != nil {
		return nil, nil, err
	}
	h.Evidence, h.chain = ev, nil
	return h, inner, nil
}

// popChain is Pop for a switch's Receive: it checks the evidence section
// with evidence.Scan, which accepts exactly what Decode does, and
// keeps it as bytes in the header's chain, and the first nonce Scan
// finds in its nonce, both aliasing frame.
func popChain(frame []byte) (*Header, []byte, error) {
	h, inner, err := popSections(frame)
	if err != nil {
		return nil, nil, err
	}
	if _, h.nonce, err = evidence.Scan(h.chain); err != nil {
		return nil, nil, err
	}
	return h, inner, nil
}

// popSections parses the header's sections and returns the header with
// its evidence section unchecked in chain, still aliasing frame.
func popSections(frame []byte) (*Header, []byte, error) {
	if !HasHeader(frame) {
		return nil, nil, ErrNoHeader
	}
	off := 4
	if off >= len(frame) {
		return nil, nil, fmt.Errorf("%w: truncated version", ErrHeaderDecode)
	}
	if version := frame[off]; version != headerVersion {
		return nil, nil, fmt.Errorf("%w: version %d", ErrHeaderDecode, version)
	}
	off++
	pol, off, err := lv(frame, off)
	if err != nil {
		return nil, nil, err
	}
	evb, off, err := lv(frame, off)
	if err != nil {
		return nil, nil, err
	}
	// The policy travels the path unchanged, so hops share one decode per
	// unique wire encoding; raw is the cache's canonical copy (never the
	// frame), kept for the egress Push to replay.
	policy, raw, err := decodePolicyCached(pol)
	if err != nil {
		return nil, nil, err
	}
	return &Header{
		Policy: policy, chain: evb,
		rawPolicy: raw, rawPolicyOf: policy,
	}, frame[off:], nil
}

func lv(frame []byte, off int) ([]byte, int, error) {
	if off+4 > len(frame) {
		return nil, 0, fmt.Errorf("%w: truncated length", ErrHeaderDecode)
	}
	n := binary.BigEndian.Uint32(frame[off:])
	off += 4
	if n > 4<<20 || off+int(n) > len(frame) {
		return nil, 0, fmt.Errorf("%w: bad field length %d", ErrHeaderDecode, n)
	}
	return frame[off : off+int(n)], off + int(n), nil
}

// HeaderOverhead returns the wire bytes the header adds to a frame — the
// quantity the Fig. 2/Fig. 4 harnesses report as in-band overhead.
func HeaderOverhead(h *Header) int {
	return 4 + 1 + 4 + len(h.encodedPolicy()) + 4 + h.evidenceSize()
}
