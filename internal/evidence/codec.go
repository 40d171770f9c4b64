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

// Decode parses a canonical encoding back into a tree. It rejects trailing
// bytes, oversized fields, and trees beyond maxNodes. Each field gets its
// own copy of the input bytes; for the per-packet path prefer DecodeShared.
func Decode(data []byte) (*Evidence, error) {
	d := decoder{buf: data}
	e, err := d.evidence()
	if err != nil {
		return nil, err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(data)-d.off)
	}
	return e, nil
}

// DecodeShared parses a canonical encoding with shared backing storage.
// Scan checks the input first and counts its nodes, so a malformed input
// allocates nothing but its error. The input is then copied ONCE into a
// private slab, every decoded byte field aliases that slab
// (capacity-clamped, so appending to a field reallocates instead of
// clobbering a sibling), the node structs come from one arena of exactly
// the tree's size, and string fields go through a bounded intern table
// (measurer, place and signer names recur on every packet of a flow).
// The result never aliases data — callers may reuse or mutate their
// buffer freely — but the nodes of one tree share storage: treat a
// DecodeShared tree as immutable, or replace fields wholesale rather than
// writing into their byte slices.
func DecodeShared(data []byte) (*Evidence, error) {
	nodes, _, err := Scan(data)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: append([]byte(nil), data...), shared: true, arena: make([]Evidence, nodes)}
	return d.evidence()
}

// Scan checks that data is exactly one canonical encoding, by the rules
// Decode applies, without building the tree: it accepts data exactly when
// Decode does, and on failure returns an error wrapping ErrDecode. It
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

// internTab deduplicates decoded strings across packets. The table is
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

func internString(b []byte) string {
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

// DecodePrefix parses one evidence tree from the front of data and returns
// it with the number of bytes consumed, for streaming contexts (in-band
// headers carrying evidence followed by payload).
func DecodePrefix(data []byte) (*Evidence, int, error) {
	d := decoder{buf: data}
	e, err := d.evidence()
	if err != nil {
		return nil, 0, err
	}
	return e, d.off, nil
}

type decoder struct {
	buf   []byte
	off   int
	nodes int

	// shared-mode state (DecodeShared): fields alias buf, nodes come from
	// an arena Scan sized to the tree, strings are interned.
	shared bool
	arena  []Evidence
}

// Decoding errors that carry no detail of the input.
var (
	errTooManyNodes = fmt.Errorf("%w: tree exceeds %d nodes", ErrDecode, maxNodes)
	errTruncated    = fmt.Errorf("%w: truncated", ErrDecode)
)

func (d *decoder) node(k Kind) *Evidence {
	if !d.shared {
		return &Evidence{Kind: k}
	}
	e := &d.arena[0]
	d.arena = d.arena[1:]
	e.Kind = k
	return e
}

func (d *decoder) evidence() (*Evidence, error) {
	d.nodes++
	if d.nodes > maxNodes {
		return nil, errTooManyNodes
	}
	k, err := d.byte()
	if err != nil {
		return nil, err
	}
	e := d.node(Kind(k))
	switch e.Kind {
	case KindEmpty:
	case KindNonce:
		if e.Nonce, err = d.bytes(); err != nil {
			return nil, err
		}
	case KindMeasurement:
		if e.Measurer, err = d.string(); err != nil {
			return nil, err
		}
		if e.Target, err = d.string(); err != nil {
			return nil, err
		}
		if e.Place, err = d.string(); err != nil {
			return nil, err
		}
		db, err := d.byte()
		if err != nil {
			return nil, err
		}
		e.Detail = Detail(db)
		if !e.Detail.Valid() {
			return nil, fmt.Errorf("%w: invalid detail %d", ErrDecode, db)
		}
		if err := d.digest(&e.Value); err != nil {
			return nil, err
		}
		if e.Claims, err = d.bytes(); err != nil {
			return nil, err
		}
	case KindHash:
		if err := d.digest(&e.Digest); err != nil {
			return nil, err
		}
	case KindSig:
		if e.Signer, err = d.string(); err != nil {
			return nil, err
		}
		if e.Signature, err = d.bytes(); err != nil {
			return nil, err
		}
		if e.Left, err = d.evidence(); err != nil {
			return nil, err
		}
	case KindSeq, KindPar:
		if e.Left, err = d.evidence(); err != nil {
			return nil, err
		}
		if e.Right, err = d.evidence(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrDecode, k)
	}
	return e, nil
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, errTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) digest(out *rot.Digest) error {
	end, err := skipDigest(d.buf, d.off)
	if err != nil {
		return err
	}
	copy(out[:], d.buf[d.off:end])
	d.off = end
	return nil
}

func (d *decoder) bytes() ([]byte, error) {
	v, off, err := readField(d.buf, d.off)
	if err != nil {
		return nil, err
	}
	d.off = off
	if len(v) == 0 {
		return nil, nil
	}
	if !d.shared {
		v = append([]byte(nil), v...)
	}
	return v, nil
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

func (d *decoder) string() (string, error) {
	b, err := d.bytes()
	if err != nil {
		return "", err
	}
	if d.shared {
		return internString(b), nil
	}
	return string(b), nil
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
