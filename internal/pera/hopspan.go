package pera

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"pera/internal/evidence"
)

// In-band hop spans (observatory plane).
//
// Alongside the evidence a PERA hop composes into the header, the switch
// can append a compact span record — which place processed the frame,
// how long its Sign/Verify stages took, what the evidence/cache/guard
// machinery did. The spans ride the same in-band header (a third LV
// section, wire version 2) in the INT lineage the paper leans on: the
// network itself carries its own observability state to the path's end,
// where a collector pops it off and reassembles the end-to-end trace.
//
// Two knobs map the spans onto the Fig. 4 design-space axes:
//
//   - SampleEvery (Inertia): spans are recorded for 1-in-N flows, chosen
//     by flow hash exactly like telemetry.FlowTracer, so a whole flow is
//     either fully spanned or not at all — partial traces are useless.
//   - ByteBudget (Detail): the span section may not exceed this many
//     encoded bytes. A hop whose span would overflow the budget drops
//     its own span and marks the section truncated, bounding the
//     header-bytes tax a long path pays for observability.

// Span flag bits.
const (
	// SpanVerified: the Verify stage ran on the incoming chain and passed.
	SpanVerified uint8 = 1 << 0
	// SpanAttested: this hop produced evidence for at least one obligation.
	SpanAttested uint8 = 1 << 1
)

// HopSpan is one hop's span record: the per-place slice of an end-to-end
// path trace. All counters are per-frame (not cumulative).
type HopSpan struct {
	Place        string `json:"place"`
	Flags        uint8  `json:"flags"`
	VerifyNS     uint64 `json:"verify_ns"`     // Verify stage duration
	SignNS       uint64 `json:"sign_ns"`       // total Sign stage duration
	TotalNS      uint64 `json:"total_ns"`      // whole-hop pipeline duration
	EvBytes      uint32 `json:"ev_bytes"`      // evidence bytes this hop added
	CacheHits    uint16 `json:"cache_hits"`    // evidence-cache hits
	CacheMisses  uint16 `json:"cache_misses"`  // evidence-cache misses
	GuardRejects uint16 `json:"guard_rejects"` // obligations skipped by ▶ tests
	SampleSkips  uint16 `json:"sample_skips"`  // obligations skipped by sampler
}

// Verified reports whether the Verify stage passed at this hop.
func (sp *HopSpan) Verified() bool { return sp.Flags&SpanVerified != 0 }

// Attested reports whether this hop produced evidence.
func (sp *HopSpan) Attested() bool { return sp.Flags&SpanAttested != 0 }

// DefaultSpanBudget bounds the encoded span section when SpanConfig
// leaves ByteBudget zero: roomy enough for ~10 hops of typical spans,
// small next to the evidence chain itself.
const DefaultSpanBudget = 512

// SpanConfig tunes in-band hop-span production (Fig. 4 knobs).
type SpanConfig struct {
	// Enabled turns span recording on for this switch.
	Enabled bool
	// SampleEvery records spans for 1-in-N flows (hash-chosen, whole
	// flows). 0 or 1 means every flow.
	SampleEvery uint32
	// ByteBudget caps the encoded span section per header; 0 means
	// DefaultSpanBudget.
	ByteBudget int
}

// Budget returns the effective byte budget.
func (c SpanConfig) Budget() int {
	if c.ByteBudget <= 0 {
		return DefaultSpanBudget
	}
	return c.ByteBudget
}

// Sampled reports whether a flow's packets should carry spans — the same
// whole-flow hash selection telemetry.FlowTracer uses, so a sampled flow
// is spanned at every hop or none.
func (c SpanConfig) Sampled(flow string) bool {
	n := c.SampleEvery
	if n <= 1 {
		return true
	}
	h := fnv.New32a()
	h.Write([]byte(flow))
	return h.Sum32()%n == 0
}

// Span section wire format (header v2, third LV section):
//
//	flags   byte    bit0 = truncated (a hop dropped its span for budget)
//	count   uvarint number of spans
//	span*   count times:
//	  place        uvarint-len + bytes
//	  flags        byte
//	  verify_ns    uvarint
//	  sign_ns      uvarint
//	  total_ns     uvarint
//	  ev_bytes     uvarint
//	  cache_hits   uvarint
//	  cache_misses uvarint
//	  guard_rejects uvarint
//	  sample_skips uvarint

const spanSectionTruncated = 1 << 0

// maxSpans bounds decoding so a hostile header cannot force unbounded
// allocation (mirrors the evidence codec's limits).
const maxSpans = 1 << 10

// encodedSpanSize returns the encoded size of one span.
func encodedSpanSize(sp *HopSpan) int {
	n := uvarintLen(uint64(len(sp.Place))) + len(sp.Place)
	n++ // flags
	n += uvarintLen(sp.VerifyNS)
	n += uvarintLen(sp.SignNS)
	n += uvarintLen(sp.TotalNS)
	n += uvarintLen(uint64(sp.EvBytes))
	n += uvarintLen(uint64(sp.CacheHits))
	n += uvarintLen(uint64(sp.CacheMisses))
	n += uvarintLen(uint64(sp.GuardRejects))
	n += uvarintLen(uint64(sp.SampleSkips))
	return n
}

// SpanSectionSize returns the encoded size of a span section carrying
// spans — what a switch checks against the byte budget before appending
// its own span.
func SpanSectionSize(spans []HopSpan) int {
	n := 1 + uvarintLen(uint64(len(spans)))
	for i := range spans {
		n += encodedSpanSize(&spans[i])
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendSpanSection encodes the span section onto b.
func appendSpanSection(b []byte, spans []HopSpan, truncated bool) []byte {
	var flags byte
	if truncated {
		flags |= spanSectionTruncated
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(spans)))
	for i := range spans {
		sp := &spans[i]
		b = binary.AppendUvarint(b, uint64(len(sp.Place)))
		b = append(b, sp.Place...)
		b = append(b, sp.Flags)
		b = binary.AppendUvarint(b, sp.VerifyNS)
		b = binary.AppendUvarint(b, sp.SignNS)
		b = binary.AppendUvarint(b, sp.TotalNS)
		b = binary.AppendUvarint(b, uint64(sp.EvBytes))
		b = binary.AppendUvarint(b, uint64(sp.CacheHits))
		b = binary.AppendUvarint(b, uint64(sp.CacheMisses))
		b = binary.AppendUvarint(b, uint64(sp.GuardRejects))
		b = binary.AppendUvarint(b, uint64(sp.SampleSkips))
	}
	return b
}

// decodeSpanSection parses the span section bytes.
func decodeSpanSection(b []byte) (spans []HopSpan, truncated bool, err error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("%w: empty span section", ErrHeaderDecode)
	}
	truncated = b[0]&spanSectionTruncated != 0
	d := spanDecoder{b: b, off: 1}
	count := d.uvarint()
	if d.err == nil && count > maxSpans {
		return nil, false, fmt.Errorf("%w: span count %d exceeds limit", ErrHeaderDecode, count)
	}
	for i := uint64(0); i < count && d.err == nil; i++ {
		var sp HopSpan
		sp.Place = d.str()
		sp.Flags = d.byte()
		sp.VerifyNS = d.uvarint()
		sp.SignNS = d.uvarint()
		sp.TotalNS = d.uvarint()
		sp.EvBytes = uint32(d.uvarint())
		sp.CacheHits = uint16(d.uvarint())
		sp.CacheMisses = uint16(d.uvarint())
		sp.GuardRejects = uint16(d.uvarint())
		sp.SampleSkips = uint16(d.uvarint())
		if d.err == nil {
			spans = append(spans, sp)
		}
	}
	if d.err != nil {
		return nil, false, d.err
	}
	return spans, truncated, nil
}

// spanDecoder reads the span wire form with sticky error handling.
type spanDecoder struct {
	b   []byte
	off int
	err error
}

func (d *spanDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad span uvarint", ErrHeaderDecode)
		return 0
	}
	d.off += n
	return v
}

func (d *spanDecoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = fmt.Errorf("%w: truncated span", ErrHeaderDecode)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *spanDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<16 || d.off+int(n) > len(d.b) {
		d.err = fmt.Errorf("%w: bad span string length %d", ErrHeaderDecode, n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// FlowID exposes the header's trace correlation ID — the hex of the
// in-band chain's evidence.FirstNonce, "-" for traffic without a
// non-empty nonce. The collector uses the same derivation as the switch
// and the appraiser, so spans, tracer records, ledger records and
// verdicts all key alike.
func FlowID(hdr *Header) string {
	var nonce []byte
	switch {
	case hdr == nil:
	case hdr.Evidence != nil:
		nonce = evidence.FirstNonce(hdr.Evidence)
	default:
		_, nonce, _ = evidence.Scan(hdr.chain) // a malformed chain has none
	}
	if len(nonce) == 0 {
		return "-"
	}
	return hex.EncodeToString(nonce)
}
