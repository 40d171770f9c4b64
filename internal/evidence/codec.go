package evidence

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pera/internal/rot"
)

// Canonical binary encoding of evidence trees.
//
// The encoding is a preorder walk; each node starts with a one-byte kind
// tag followed by its fields, strings and byte slices as u32
// length-prefixed values. Canonicality (one tree ⇒ one byte string, and
// vice versa) matters because digests and signatures are computed over the
// encoding: any ambiguity would let an attacker present one tree to a
// signer and a different one to an appraiser.
//
// The same encoding travels in-band inside the PERA evidence header and
// out-of-band inside RATS messages.

// encodeLimits bound decoding so a hostile in-band header cannot cause
// unbounded allocation on a switch.
const (
	maxFieldLen = 1 << 20 // 1 MiB per string/bytes field
	maxNodes    = 1 << 16 // nodes per tree
)

// ErrDecode wraps all decoding failures.
var ErrDecode = errors.New("evidence: decode error")

// Decoding errors that carry no detail of the input.
var (
	errTooManyNodes = fmt.Errorf("%w: tree exceeds %d nodes", ErrDecode, maxNodes)
	errTruncated    = fmt.Errorf("%w: truncated", ErrDecode)
)

// Encode serializes e into its canonical binary form. A nil tree encodes
// as the empty node.
func Encode(e *Evidence) []byte {
	var b []byte
	return appendEvidence(b, e)
}

// AppendEncode appends e's canonical form to buf and returns the extended
// slice, for allocation-conscious callers on the switch fast path.
func AppendEncode(buf []byte, e *Evidence) []byte {
	return appendEvidence(buf, e)
}

func appendEvidence(b []byte, e *Evidence) []byte {
	if e == nil {
		return append(b, byte(KindEmpty))
	}
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case KindEmpty:
	case KindNonce:
		b = appendBytes(b, e.Nonce)
	case KindMeasurement:
		b = appendString(b, e.Measurer)
		b = appendString(b, e.Target)
		b = appendString(b, e.Place)
		b = append(b, byte(e.Detail))
		b = append(b, e.Value[:]...)
		b = appendBytes(b, e.Claims)
	case KindHash:
		b = append(b, e.Digest[:]...)
	case KindSig:
		b = appendSigFields(b, e.Signer, e.Signature)
		b = appendEvidence(b, e.Left)
	case KindSeq, KindPar:
		b = appendEvidence(b, e.Left)
		b = appendEvidence(b, e.Right)
	}
	return b
}

// appendSigFields appends a sig node's fields, the signer and the
// signature, which sit between its kind byte and its child.
func appendSigFields(b []byte, signer string, sig []byte) []byte {
	b = appendString(b, signer)
	return appendBytes(b, sig)
}

// AppendSeq appends the canonical encoding of seq(l, r) to buf, given l
// as its canonical encoding: the kind byte, then l's bytes as they are,
// then r. This is how a hop extends the chain it received without
// decoding it; the result is byte for byte AppendEncode(buf, Seq(l', r))
// for the tree l' that l encodes.
func AppendSeq(buf, l []byte, r *Evidence) []byte {
	buf = append(buf, byte(KindSeq))
	buf = append(buf, l...)
	return appendEvidence(buf, r)
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Decode parses a canonical encoding back into a tree. It rejects what
// Scan rejects — unknown kinds, invalid details, fields over 1 MiB, trees
// beyond 65,536 nodes, trailing bytes — and allocates nothing but the
// error for such input. An accepted input is copied ONCE into a private
// slab, every decoded byte field aliases that slab (capacity-clamped, so
// appending to a field reallocates instead of clobbering a sibling), the
// node structs come from one arena of exactly the tree's size, and string
// fields go through a bounded intern table (measurer, place and signer
// names recur on every packet of a flow). The result never aliases data
// — callers may reuse or mutate their buffer freely — but the nodes of
// one tree share storage: treat a decoded tree as immutable, or replace
// fields wholesale rather than appending to their byte slices.
func Decode(data []byte) (*Evidence, error) {
	nodes, _, err := Scan(data)
	if err != nil {
		return nil, err
	}
	d := decoder{c: NewCursor(append([]byte(nil), data...)), arena: make([]Evidence, nodes)}
	return d.evidence(), nil
}

// Scan checks that data is exactly one canonical encoding without
// building the tree: Decode accepts exactly what it accepts, and on
// failure it returns an error wrapping ErrDecode. It
// returns the tree's node count, Size(tree), and its first non-empty
// nonce, FirstNonce(tree), which aliases data. Scan allocates nothing
// when data is well formed; a PERA hop uses it to check the chain it
// extends as bytes.
func Scan(data []byte) (nodes int, nonce []byte, err error) {
	off := 0
	// The encoding is a preorder walk, so one counter of the subtrees
	// still to read replaces the decoder's recursion.
	for pending := 1; pending > 0; pending-- {
		nodes++
		if nodes > maxNodes {
			return 0, nil, errTooManyNodes
		}
		if off >= len(data) {
			return 0, nil, errTruncated
		}
		k := Kind(data[off])
		off++
		switch k {
		case KindEmpty:
		case KindNonce:
			var v []byte
			if v, off, err = readField(data, off); err != nil {
				return 0, nil, err
			}
			if nonce == nil && len(v) > 0 {
				nonce = v
			}
		case KindMeasurement:
			for i := 0; i < 3; i++ { // measurer, target, place
				if _, off, err = readField(data, off); err != nil {
					return 0, nil, err
				}
			}
			if off >= len(data) {
				return 0, nil, errTruncated
			}
			if db := data[off]; !Detail(db).Valid() {
				return 0, nil, fmt.Errorf("%w: invalid detail %d", ErrDecode, db)
			}
			if off, err = skipDigest(data, off+1); err != nil {
				return 0, nil, err
			}
			if _, off, err = readField(data, off); err != nil { // claims
				return 0, nil, err
			}
		case KindHash:
			if off, err = skipDigest(data, off); err != nil {
				return 0, nil, err
			}
		case KindSig:
			for i := 0; i < 2; i++ { // signer, signature
				if _, off, err = readField(data, off); err != nil {
					return 0, nil, err
				}
			}
			pending++
		case KindSeq, KindPar:
			pending += 2
		default:
			return 0, nil, fmt.Errorf("%w: unknown kind %d", ErrDecode, uint8(k))
		}
	}
	if off != len(data) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(data)-off)
	}
	return nodes, nonce, nil
}

// internTab deduplicates decoded names across packets. The table is
// bounded: oversized strings bypass it and a full table is dropped
// wholesale (hostile unique-string floods degrade to plain allocation,
// they cannot grow memory without bound).
var internTab struct {
	sync.RWMutex
	m map[string]string
}

const (
	internCap    = 4096
	internMaxLen = 128
)

// Name returns the string of a name field (a signer, measurer, target or
// place) through the bounded intern table: names recur on every packet
// of a flow, so reading one usually allocates nothing.
func Name(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	internTab.RLock()
	s, ok := internTab.m[string(b)] // key lookup does not allocate
	internTab.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internTab.Lock()
	if internTab.m == nil || len(internTab.m) >= internCap {
		internTab.m = make(map[string]string, 64)
	}
	internTab.m[s] = s
	internTab.Unlock()
	return s
}

// decoder builds the tree of an encoding Scan has accepted, so no read
// can fail: a cursor reads the nodes in preorder, the order the tree is
// built in, and they come from an arena of exactly the tree's size.
type decoder struct {
	c     Cursor
	n     Node // the node being read; a child's read reuses it
	arena []Evidence
}

func (d *decoder) evidence() *Evidence {
	n := &d.n
	d.c.Next(n)
	e := &d.arena[0]
	d.arena = d.arena[1:]
	*e = Evidence{
		Kind: n.Kind, Nonce: orNil(n.Nonce),
		Measurer: Name(n.Measurer), Target: Name(n.Target), Place: Name(n.Place),
		Detail: n.Detail, Value: n.Value, Claims: orNil(n.Claims),
		Digest: n.Digest,
		Signer: Name(n.Signer), Signature: orNil(n.Signature),
	}
	switch e.Kind {
	case KindSig:
		e.Left = d.evidence()
	case KindSeq, KindPar:
		e.Left = d.evidence()
		e.Right = d.evidence()
	}
	return e
}

// orNil returns an empty field as nil, as the tree constructors hold it.
func orNil(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// readField reads the u32 length-prefixed field at buf[off:] and returns
// it, capacity-clamped and aliasing buf, with the offset past it.
func readField(buf []byte, off int) ([]byte, int, error) {
	if off+4 > len(buf) {
		return nil, 0, fmt.Errorf("%w: truncated length", ErrDecode)
	}
	n := binary.BigEndian.Uint32(buf[off:])
	off += 4
	if n > maxFieldLen {
		return nil, 0, fmt.Errorf("%w: field of %d bytes exceeds limit", ErrDecode, n)
	}
	end := off + int(n)
	if end > len(buf) {
		return nil, 0, fmt.Errorf("%w: truncated field", ErrDecode)
	}
	return buf[off:end:end], end, nil
}

// skipDigest returns the offset past the digest at buf[off:].
func skipDigest(buf []byte, off int) (int, error) {
	if off+rot.DigestSize > len(buf) {
		return 0, fmt.Errorf("%w: truncated digest", ErrDecode)
	}
	return off + rot.DigestSize, nil
}

// EncodedSize returns len(Encode(e)) without building the encoding, used
// by the Fig. 2/Fig. 4 harnesses to account header overhead.
func EncodedSize(e *Evidence) int {
	if e == nil {
		return 1
	}
	n := 1
	switch e.Kind {
	case KindNonce:
		n += 4 + len(e.Nonce)
	case KindMeasurement:
		n += 4 + len(e.Measurer)
		n += 4 + len(e.Target)
		n += 4 + len(e.Place)
		n += 1 + rot.DigestSize
		n += 4 + len(e.Claims)
	case KindHash:
		n += rot.DigestSize
	case KindSig:
		n += 4 + len(e.Signer)
		n += 4 + len(e.Signature)
		n += EncodedSize(e.Left)
	case KindSeq, KindPar:
		n += EncodedSize(e.Left) + EncodedSize(e.Right)
	}
	return n
}
