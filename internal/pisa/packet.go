package pisa

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"pera/internal/p4ir"
)

// inlineSlots is how many field values a packet holds without a second
// allocation: the program library's layouts use 15.
const inlineSlots = 16

// Packet is a frame travelling through the pipeline: the raw bytes it
// arrived with, the header fields the parser extracted (plus metadata),
// and bookkeeping to re-serialize modified headers on the way out.
//
// Field values live in the slots of the layout the packet is bound to,
// with a presence bit each, so an absent field reads 0 and String lists
// only the fields that were set. A Set of a name outside the layout
// spills into a map made on first use. A pipeline binds a packet to its
// own program's layout before reading any slot (bind), so packets from
// NewPacket or from another program's Parse carry every value across.
// Copy a packet with Clone, not by assignment: its slots live inside it.
type Packet struct {
	// Data is the original frame.
	Data []byte

	lay        *layout
	vals       []uint64          // one value per slot of lay; 0 when absent
	has        []uint64          // presence bit per slot of lay
	spill      map[string]uint64 // fields outside lay
	ext        []*hdrPlan        // headers the parser extracted, in order
	payloadOff int               // bit offset where the unparsed payload begins

	inlVals [inlineSlots]uint64
	inlHas  [1]uint64
	extBuf  [4]*hdrPlan // programs parse ≤4 headers
}

// NewPacket wraps raw frame bytes arriving on ingressPort.
func NewPacket(data []byte, ingressPort uint64) *Packet {
	p := new(Packet)
	p.init(data, metaLayout)
	p.set(slotIngressPort, ingressPort)
	return p
}

// init binds a zeroed packet to l.
func (p *Packet) init(data []byte, l *layout) {
	p.Data, p.lay = data, l
	p.useSlots(len(l.names))
	p.ext = p.extBuf[:0]
}

// useSlots points vals and has at n zeroed slots, inline when they fit.
func (p *Packet) useSlots(n int) {
	if n <= inlineSlots {
		p.vals = p.inlVals[:n:n]
	} else {
		p.vals = make([]uint64, n)
	}
	if w := (n + 63) / 64; w <= len(p.inlHas) {
		p.has = p.inlHas[:w:w]
	} else {
		p.has = make([]uint64, w)
	}
}

// bind moves p onto l. Every present field keeps its value under its
// name: in l's slot when l has one, in the spill map otherwise. Each
// extracted header becomes l's header of the same name; a header l does
// not declare keeps its name and deparses to nothing.
func (p *Packet) bind(l *layout) {
	if p.lay == l {
		return
	}
	type field struct {
		name string
		v    uint64
	}
	var buf [inlineSlots]field
	present := buf[:0]
	for s, v := range p.vals {
		if p.present(s) {
			present = append(present, field{p.lay.names[s], v})
		}
	}
	for name, v := range p.spill {
		present = append(present, field{name, v})
	}
	p.inlVals, p.inlHas, p.spill = [inlineSlots]uint64{}, [1]uint64{}, nil
	p.lay = l
	p.useSlots(len(l.names))
	for _, f := range present {
		p.Set(f.name, f.v)
	}
	for i, h := range p.ext {
		if nh, ok := l.hdrs[h.name]; ok {
			p.ext[i] = nh
		} else if h.fields != nil {
			p.ext[i] = &hdrPlan{name: h.name}
		}
	}
	if p.ext == nil {
		p.ext = p.extBuf[:0]
	}
}

func (p *Packet) get(s int) uint64 { return p.vals[s] }

func (p *Packet) set(s int, v uint64) {
	p.vals[s] = v
	p.has[s>>6] |= 1 << (s & 63)
}

func (p *Packet) present(s int) bool { return p.has[s>>6]&(1<<(s&63)) != 0 }

// Get returns a field value (absent fields read zero, like P4 metadata).
func (p *Packet) Get(qname string) uint64 {
	if s, ok := p.lay.slotOf(qname); ok {
		return p.vals[s]
	}
	return p.spill[qname]
}

// Set assigns a field value.
func (p *Packet) Set(qname string, v uint64) {
	if s, ok := p.lay.slotOf(qname); ok {
		p.set(s, v)
		return
	}
	if p.spill == nil {
		p.spill = make(map[string]uint64)
	}
	p.spill[qname] = v
}

// Dropped reports whether the pipeline marked the packet dropped.
func (p *Packet) Dropped() bool { return p.Get(p4ir.MetaDrop) != 0 }

// EgressPort returns the selected output port.
func (p *Packet) EgressPort() uint64 { return p.Get(p4ir.MetaEgressPort) }

// Payload returns the unparsed remainder of the frame. The parser always
// leaves the payload byte-aligned when headers are byte-multiples; for
// odd header widths the payload begins at the next full byte.
func (p *Packet) Payload() []byte {
	byteOff := (p.payloadOff + 7) / 8
	if byteOff >= len(p.Data) {
		return nil
	}
	return p.Data[byteOff:]
}

// Extracted returns the header type names extracted by the parser, in
// order.
func (p *Packet) Extracted() []string {
	var names []string
	for _, h := range p.ext {
		names = append(names, h.name)
	}
	return names
}

// Clone returns a deep copy, used for mirroring/cloning.
func (p *Packet) Clone() *Packet {
	cp := &Packet{
		Data:       append([]byte(nil), p.Data...),
		lay:        p.lay,
		spill:      maps.Clone(p.spill),
		payloadOff: p.payloadOff,
	}
	cp.useSlots(len(p.vals))
	copy(cp.vals, p.vals)
	copy(cp.has, p.has)
	cp.ext = append(cp.extBuf[:0], p.ext...)
	return cp
}

// String renders the parsed fields deterministically, for logs and tests.
func (p *Packet) String() string {
	keys := make([]string, 0, len(p.vals)+len(p.spill))
	for s := range p.vals {
		if p.present(s) {
			keys = append(keys, p.lay.names[s])
		}
	}
	for k := range p.spill {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, p.Get(k))
	}
	return b.String()
}

// FlowHash returns a stable non-cryptographic hash over the packet's
// addressing fields, used by evidence samplers (per-flow sampling) and
// load distribution. FNV-1a over the canonical flow fields.
func (p *Packet) FlowHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i, name := range flowFields {
		var v uint64
		if p.lay != nil && p.lay.flow[i] >= 0 {
			v = p.vals[p.lay.flow[i]]
		} else {
			v = p.spill[name]
		}
		for j := 0; j < 8; j++ {
			h ^= v >> (8 * uint(j)) & 0xff
			h *= prime
		}
	}
	return h
}
