// Package pera implements PERA — "PISA Extended with Remote Attestation"
// (§5 of the paper): a programmable switch whose pipeline is augmented
// with a Sign/Verify stage backed by a hardware root of trust and an
// evidence Create/Inspect/Compose block (Fig. 3). PERA switches execute
// compiled attestation obligations carried either in-band (in an options
// header travelling with traffic, Fig. 2's in-band variant) or configured
// out-of-band, and emit evidence in-band (chained along the path) or
// out-of-band to an appraiser.
package pera

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pera/internal/evidence"
	"pera/internal/pisa"
)

// Guard is one Boolean test on a parsed packet field — the execution form
// of the hybrid language's ▶ operator (NetKAT test prefix). A guard list
// is a conjunction.
type Guard struct {
	Field string
	Value uint64
}

// Matches reports whether the packet satisfies the guard.
func (g Guard) Matches(pkt *pisa.Packet) bool { return pkt.Get(g.Field) == g.Value }

// MatchAll reports whether the packet satisfies every guard.
func MatchAll(gs []Guard, pkt *pisa.Packet) bool {
	for _, g := range gs {
		if !g.Matches(pkt) {
			return false
		}
	}
	return true
}

// Obligation is one compiled per-hop attestation duty: at Place (or at
// every attesting hop when Place is empty — the ∀hop of the hybrid
// language), if the packet passes the Guards (▶), attest the given claim
// details, optionally hash and sign, and direct the evidence to the
// appraiser place.
type Obligation struct {
	// Place restricts the obligation to one concrete switch; empty means
	// every PERA hop on the path applies it.
	Place string
	// Guards gate the attestation (▶ "fail early" tests).
	Guards []Guard
	// Claims are the detail levels to attest (Fig. 4 detail axis).
	Claims []evidence.Detail
	// HashEvidence applies # to the produced evidence.
	HashEvidence bool
	// SignEvidence applies ! (the RoT-backed Sign stage).
	SignEvidence bool
	// Appraiser names the place evidence is destined for.
	Appraiser string
}

// AppliesAt reports whether the obligation binds the named switch.
func (o *Obligation) AppliesAt(place string) bool {
	return o.Place == "" || o.Place == place
}

// Policy is an ordered set of obligations plus a nonce binding the run.
// It is what the relying party compiles (from network-aware Copland) and
// serializes into the transport options header (§5.2).
type Policy struct {
	ID    uint64
	Nonce []byte
	Obls  []Obligation
}

// Errors from policy codec.
var ErrPolicyDecode = errors.New("pera: policy decode error")

// policy wire limits.
const (
	maxPolicyObls   = 1024
	maxPolicyGuards = 64
	maxPolicyClaims = 16
)

// Encode serializes the policy.
func (p *Policy) Encode() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint64(b, p.ID)
	b = appendLV(b, p.Nonce)
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.Obls)))
	for i := range p.Obls {
		o := &p.Obls[i]
		b = appendLV(b, []byte(o.Place))
		b = binary.BigEndian.AppendUint32(b, uint32(len(o.Guards)))
		for _, g := range o.Guards {
			b = appendLV(b, []byte(g.Field))
			b = binary.BigEndian.AppendUint64(b, g.Value)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(o.Claims)))
		for _, c := range o.Claims {
			b = append(b, byte(c))
		}
		var flags byte
		if o.HashEvidence {
			flags |= 1
		}
		if o.SignEvidence {
			flags |= 2
		}
		b = append(b, flags)
		b = appendLV(b, []byte(o.Appraiser))
	}
	return b
}

func appendLV(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// DecodePolicy parses an encoded policy. The result never aliases data
// (the bytes are copied once up front); byte fields of the returned
// policy alias that private copy, so treat the decoded policy as
// immutable.
func DecodePolicy(data []byte) (*Policy, error) {
	return parsePolicy(append([]byte(nil), data...))
}

// policyCache memoizes decoded policies by wire bytes. A policy travels
// unchanged along its whole path and recurs for every packet of a flow,
// so each hop's Pop was re-decoding identical bytes. Entries own a
// canonical copy of the encoding which the decoded policy aliases; the
// bounded cache drops wholesale when hostile traffic floods it with
// unique policies.
var policyCache struct {
	sync.Mutex
	m map[string]*policyCacheEntry
}

type policyCacheEntry struct {
	pol *Policy
	raw []byte
}

const policyCacheCap = 512

// decodePolicyCached returns the decoded policy for these wire bytes and
// the canonical raw encoding it aliases (safe to retain: owned by the
// cache entry, never by the caller's frame).
func decodePolicyCached(data []byte) (*Policy, []byte, error) {
	policyCache.Lock()
	ent, ok := policyCache.m[string(data)] // key lookup does not allocate
	policyCache.Unlock()
	if ok {
		return ent.pol, ent.raw, nil
	}
	raw := append([]byte(nil), data...)
	p, err := parsePolicy(raw)
	if err != nil {
		return nil, nil, err
	}
	policyCache.Lock()
	if policyCache.m == nil || len(policyCache.m) >= policyCacheCap {
		policyCache.m = make(map[string]*policyCacheEntry, 64)
	}
	policyCache.m[string(raw)] = &policyCacheEntry{pol: p, raw: raw}
	policyCache.Unlock()
	return p, raw, nil
}

// parsePolicy decodes a policy whose byte fields ALIAS data — the caller
// must own data and never mutate it afterwards.
func parsePolicy(data []byte) (*Policy, error) {
	r := &reader{buf: data}
	p := &Policy{}
	var err error
	if p.ID, err = r.u64(); err != nil {
		return nil, err
	}
	if p.Nonce, err = r.lv(); err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxPolicyObls {
		return nil, fmt.Errorf("%w: %d obligations", ErrPolicyDecode, n)
	}
	for i := uint32(0); i < n; i++ {
		var o Obligation
		pl, err := r.lv()
		if err != nil {
			return nil, err
		}
		o.Place = string(pl)
		ng, err := r.u32()
		if err != nil {
			return nil, err
		}
		if ng > maxPolicyGuards {
			return nil, fmt.Errorf("%w: %d guards", ErrPolicyDecode, ng)
		}
		for j := uint32(0); j < ng; j++ {
			f, err := r.lv()
			if err != nil {
				return nil, err
			}
			v, err := r.u64()
			if err != nil {
				return nil, err
			}
			o.Guards = append(o.Guards, Guard{Field: string(f), Value: v})
		}
		nc, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nc > maxPolicyClaims {
			return nil, fmt.Errorf("%w: %d claims", ErrPolicyDecode, nc)
		}
		for j := uint32(0); j < nc; j++ {
			cb, err := r.byte()
			if err != nil {
				return nil, err
			}
			d := evidence.Detail(cb)
			if !d.Valid() {
				return nil, fmt.Errorf("%w: detail %d", ErrPolicyDecode, cb)
			}
			o.Claims = append(o.Claims, d)
		}
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		// Encode writes only the hash (1) and sign (2) bits; rejecting
		// any other keeps one encoding per policy.
		if flags&^3 != 0 {
			return nil, fmt.Errorf("%w: obligation flags %#x", ErrPolicyDecode, flags)
		}
		o.HashEvidence = flags&1 != 0
		o.SignEvidence = flags&2 != 0
		ap, err := r.lv()
		if err != nil {
			return nil, err
		}
		o.Appraiser = string(ap)
		p.Obls = append(p.Obls, o)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrPolicyDecode)
	}
	return p, nil
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrPolicyDecode)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrPolicyDecode)
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrPolicyDecode)
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) lv() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: oversized field", ErrPolicyDecode)
	}
	if r.off+int(n) > len(r.buf) {
		return nil, fmt.Errorf("%w: truncated field", ErrPolicyDecode)
	}
	// Zero-copy: the field aliases r.buf, capacity-clamped so an append
	// by the caller reallocates instead of clobbering the next field.
	// parsePolicy's contract makes this safe (the buffer is a private,
	// immutable copy owned by the decode).
	var v []byte
	if n > 0 {
		v = r.buf[r.off : r.off+int(n) : r.off+int(n)]
	}
	r.off += int(n)
	return v, nil
}
