package rot

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire codec for quotes, so hardware evidence can carry the full quote
// and appraisers can verify the hardware rooting independently of the
// evidence signature (the measurement's Claims bytes in PERA hardware
// claims hold exactly this encoding).

// ErrQuoteDecode wraps quote decoding failures.
var ErrQuoteDecode = errors.New("rot: quote decode error")

// EncodeQuote serializes q.
func EncodeQuote(q *Quote) []byte {
	var b []byte
	b = append(b, quoteMagic...)
	b = appendLV(b, []byte(q.Platform))
	b = appendLV(b, q.Nonce)
	b = binary.BigEndian.AppendUint32(b, uint32(len(q.PCRSelect)))
	for _, i := range q.PCRSelect {
		b = binary.BigEndian.AppendUint32(b, uint32(i))
	}
	b = append(b, q.PCRDigest[:]...)
	b = binary.BigEndian.AppendUint64(b, q.Boots)
	b = binary.BigEndian.AppendUint64(b, q.Counter)
	b = appendLV(b, q.Signature)
	return b
}

// QuoteWire is an encoded quote read in place: its byte fields alias
// the encoding ReadQuote was given, so reading one allocates nothing.
type QuoteWire struct {
	Platform  []byte
	Nonce     []byte
	sel       []byte // the selected PCR indices, 4 bytes each
	PCRDigest Digest
	Boots     uint64
	Counter   uint64
	Signature []byte
}

const quoteMagic = "PERA-QUOTEWIRE-V1\x00"

// ReadQuote checks an encoded quote and reads its fields in place. It
// accepts exactly the encodings DecodeQuote accepts and rejects the
// others with the same error.
func ReadQuote(data []byte) (QuoteWire, error) {
	var w QuoteWire
	if len(data) < len(quoteMagic) || string(data[:len(quoteMagic)]) != quoteMagic {
		return w, fmt.Errorf("%w: bad magic", ErrQuoteDecode)
	}
	off := len(quoteMagic)
	readLV := func() ([]byte, error) {
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated length", ErrQuoteDecode)
		}
		n := binary.BigEndian.Uint32(data[off:])
		off += 4
		if n > 1<<20 || off+int(n) > len(data) {
			return nil, fmt.Errorf("%w: bad field length", ErrQuoteDecode)
		}
		v := data[off : off+int(n) : off+int(n)]
		off += int(n)
		return v, nil
	}
	var err error
	if w.Platform, err = readLV(); err != nil {
		return w, err
	}
	if w.Nonce, err = readLV(); err != nil {
		return w, err
	}
	if off+4 > len(data) {
		return w, fmt.Errorf("%w: truncated selection", ErrQuoteDecode)
	}
	nsel := binary.BigEndian.Uint32(data[off:])
	off += 4
	if nsel > NumPCRs {
		return w, fmt.Errorf("%w: %d selected PCRs", ErrQuoteDecode, nsel)
	}
	if off+4*int(nsel) > len(data) {
		return w, fmt.Errorf("%w: truncated selection entry", ErrQuoteDecode)
	}
	w.sel = data[off : off+4*int(nsel) : off+4*int(nsel)]
	off += len(w.sel)
	if off+DigestSize > len(data) {
		return w, fmt.Errorf("%w: truncated digest", ErrQuoteDecode)
	}
	copy(w.PCRDigest[:], data[off:])
	off += DigestSize
	if off+16 > len(data) {
		return w, fmt.Errorf("%w: truncated counters", ErrQuoteDecode)
	}
	w.Boots = binary.BigEndian.Uint64(data[off:])
	w.Counter = binary.BigEndian.Uint64(data[off+8:])
	off += 16
	if w.Signature, err = readLV(); err != nil {
		return w, err
	}
	if off != len(data) {
		return w, fmt.Errorf("%w: trailing bytes", ErrQuoteDecode)
	}
	return w, nil
}

// Quote copies the wire into a Quote that owns its bytes.
func (w *QuoteWire) Quote() *Quote {
	q := &Quote{
		Platform:  string(w.Platform),
		Nonce:     append([]byte(nil), w.Nonce...),
		PCRDigest: w.PCRDigest,
		Boots:     w.Boots,
		Counter:   w.Counter,
		Signature: append([]byte(nil), w.Signature...),
	}
	for i := 0; i < len(w.sel); i += 4 {
		q.PCRSelect = append(q.PCRSelect, int(binary.BigEndian.Uint32(w.sel[i:])))
	}
	return q
}

// DecodeQuote parses an encoded quote into a Quote that owns its bytes.
func DecodeQuote(data []byte) (*Quote, error) {
	w, err := ReadQuote(data)
	if err != nil {
		return nil, err
	}
	return w.Quote(), nil
}
