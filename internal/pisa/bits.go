// Package pisa executes p4ir programs as a PISA-style switch pipeline:
// programmable parser, ingress match+action stages, egress stages,
// deparser, plus registers and counters. It is the reproduction's
// substitute for Tofino-class hardware — stage-accurate rather than
// cycle-accurate, which is what the paper's Fig. 3 pipeline claims need.
package pisa

import "errors"

// ErrTruncated is returned when the parser runs off the end of a packet.
var ErrTruncated = errors.New("pisa: packet truncated during parse")

// readField returns the bits-wide (1..64) big-endian field at bit offset
// off of data; the caller has checked that it lies within data. A field
// that starts and ends on byte boundaries is read as a run of bytes, any
// other bit by bit.
func readField(data []byte, off, bits int) uint64 {
	var v uint64
	if (off|bits)&7 == 0 {
		for _, b := range data[off>>3 : (off+bits)>>3] {
			v = v<<8 | uint64(b)
		}
		return v
	}
	for i := off; i < off+bits; i++ {
		v = v<<1 | uint64(data[i>>3]>>(7-i&7)&1)
	}
	return v
}

// writeField stores the low bits of v big-endian at bit offset off of
// data, where data is still zero: whole bytes when the field is
// byte-aligned, bit by bit otherwise.
func writeField(data []byte, off, bits int, v uint64) {
	if (off|bits)&7 == 0 {
		for i := (off+bits)>>3 - 1; i >= off>>3; i-- {
			data[i] = byte(v)
			v >>= 8
		}
		return
	}
	for i := off + bits - 1; i >= off; i-- {
		data[i>>3] |= byte(v&1) << (7 - i&7)
		v >>= 1
	}
}

// mask returns the n-bit mask (n in 1..64).
func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
