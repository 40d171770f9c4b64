package pisa

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pera/internal/p4ir"
)

// The reference pipeline: the map-and-bit-loop interpreter the compiled
// layout replaced, kept as test code so the differential test and
// FuzzProcess can hold the compiled pipeline to it. It reads table
// entries and registers of an Instance by name and walks every header
// bit by bit into a map keyed by qualified field name.

// bitReader extracts big-endian bit fields from a byte slice.
type bitReader struct {
	data []byte
	off  int // bit offset
}

// read extracts the next n bits (1..64) as a big-endian unsigned value.
func (r *bitReader) read(n int) (uint64, error) {
	if n < 1 || n > 64 {
		return 0, fmt.Errorf("pisa: bad field width %d", n)
	}
	if r.off+n > len(r.data)*8 {
		return 0, ErrTruncated
	}
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := (r.off + i) / 8
		bitIdx := 7 - (r.off+i)%8
		v = v<<1 | uint64(r.data[byteIdx]>>bitIdx&1)
	}
	r.off += n
	return v, nil
}

// bitWriter appends big-endian bit fields to a buffer.
type bitWriter struct {
	data []byte
	off  int // bit offset into data (always == bits written)
}

// write appends the low n bits of v.
func (w *bitWriter) write(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if w.off%8 == 0 {
			w.data = append(w.data, 0)
		}
		bit := byte(v >> uint(i) & 1)
		w.data[w.off/8] |= bit << (7 - w.off%8)
		w.off++
	}
}

// refPacket is the reference's packet: every field in one map.
type refPacket struct {
	Data       []byte
	Fields     map[string]uint64
	extracted  []string
	payloadOff int
}

func newRefPacket(data []byte, ingressPort uint64) *refPacket {
	return &refPacket{Data: data, Fields: map[string]uint64{p4ir.MetaIngressPort: ingressPort}}
}

func (p *refPacket) Get(qname string) uint64    { return p.Fields[qname] }
func (p *refPacket) Set(qname string, v uint64) { p.Fields[qname] = v }
func (p *refPacket) Dropped() bool              { return p.Fields[p4ir.MetaDrop] != 0 }

func (p *refPacket) Payload() []byte {
	byteOff := (p.payloadOff + 7) / 8
	if byteOff >= len(p.Data) {
		return nil
	}
	return p.Data[byteOff:]
}

func (p *refPacket) Clone() *refPacket {
	cp := &refPacket{
		Data:       append([]byte(nil), p.Data...),
		Fields:     make(map[string]uint64, len(p.Fields)),
		extracted:  append([]string(nil), p.extracted...),
		payloadOff: p.payloadOff,
	}
	for k, v := range p.Fields {
		cp.Fields[k] = v
	}
	return cp
}

func (p *refPacket) String() string {
	keys := make([]string, 0, len(p.Fields))
	for k := range p.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, p.Fields[k])
	}
	return b.String()
}

type refOutput struct {
	Port   uint64
	Packet *refPacket
	Mirror bool
}

func refParse(in *Instance, pkt *refPacket) error {
	if len(in.prog.Parser) == 0 {
		return ErrNoParserStart
	}
	r := bitReader{data: pkt.Data}
	state := in.prog.Parser[0]
	for steps := 0; steps < maxParserSteps; steps++ {
		if state.Extract != "" {
			hdr, _ := in.prog.Header(state.Extract)
			for _, f := range hdr.Fields {
				v, err := r.read(f.Bits)
				if err != nil {
					return fmt.Errorf("extracting %s.%s: %w", hdr.Name, f.Name, err)
				}
				pkt.Fields[p4ir.QName(hdr.Name, f.Name)] = v
			}
			pkt.extracted = append(pkt.extracted, hdr.Name)
		}
		next := state.Default
		if state.SelectField != "" {
			v := pkt.Get(state.SelectField)
			for _, tr := range state.Transitions {
				if tr.Value == v {
					next = tr.Next
					break
				}
			}
		}
		switch next {
		case p4ir.StateAccept:
			pkt.payloadOff = r.off
			in.parsedN.Add(1)
			return nil
		case p4ir.StateReject:
			return ErrParseReject
		}
		ns, ok := in.prog.State(next)
		if !ok {
			return fmt.Errorf("pisa: parser transition to unknown state %q", next)
		}
		state = ns
	}
	return fmt.Errorf("pisa: parser exceeded %d steps", maxParserSteps)
}

func refApplyTables(in *Instance, tables []*p4ir.Table, pkt *refPacket) error {
	for _, decl := range tables {
		if pkt.Dropped() {
			return nil
		}
		entries, _ := in.Entries(decl.Name)
		entry, hit := refLookup(decl, entries, pkt)
		var actName string
		var params map[string]uint64
		if hit {
			actName, params = entry.Action, entry.Params
		} else {
			actName, params = decl.DefaultAction, decl.DefaultParams
		}
		if actName == "" {
			continue
		}
		act, ok := in.prog.Action(actName)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownAction, actName)
		}
		if err := refExecAction(in, act, params, pkt); err != nil {
			return err
		}
	}
	return nil
}

func refExecAction(in *Instance, act *p4ir.Action, params map[string]uint64, pkt *refPacket) error {
	eval := func(v p4ir.Val) uint64 {
		switch v.Kind {
		case p4ir.ValConst:
			return v.Const
		case p4ir.ValField:
			return pkt.Get(v.Name)
		case p4ir.ValParam:
			return params[v.Name]
		default:
			return 0
		}
	}
	for _, op := range act.Ops {
		switch op.Kind {
		case p4ir.OpSet:
			pkt.Set(op.Dst, refMaskToWidth(in.prog, op.Dst, eval(op.Src)))
		case p4ir.OpAdd:
			pkt.Set(op.Dst, refMaskToWidth(in.prog, op.Dst, pkt.Get(op.Dst)+eval(op.Src)))
		case p4ir.OpForward:
			pkt.Set(p4ir.MetaEgressPort, eval(op.Src))
		case p4ir.OpDrop:
			pkt.Set(p4ir.MetaDrop, 1)
		case p4ir.OpRegWrite:
			in.RegWrite(op.Reg, eval(op.Index), eval(op.Src))
		case p4ir.OpRegRead:
			pkt.Set(op.Dst, in.RegRead(op.Reg, eval(op.Index)))
		case p4ir.OpCount:
			refCount(in, op.Reg, eval(op.Index))
		default:
			return fmt.Errorf("pisa: unknown op %v", op.Kind)
		}
	}
	return nil
}

func refCount(in *Instance, reg string, idx uint64) {
	if r, ok := in.lay.regIdx[reg]; ok {
		in.count(r, idx)
	}
}

// refMaskToWidth truncates a value to the declared width of a header
// field; metadata fields are full 64-bit.
func refMaskToWidth(prog *p4ir.Program, qname string, v uint64) uint64 {
	dot := strings.IndexByte(qname, '.')
	if dot < 0 || qname[:dot] == "meta" {
		return v
	}
	hdr, ok := prog.Header(qname[:dot])
	if !ok {
		return v
	}
	f, ok := hdr.Field(qname[dot+1:])
	if !ok {
		return v
	}
	return v & mask(f.Bits)
}

func refDeparse(in *Instance, pkt *refPacket) []byte {
	payload := pkt.Payload()
	w := bitWriter{data: make([]byte, 0, (pkt.payloadOff+7)/8+len(payload))}
	for _, hname := range pkt.extracted {
		hdr, ok := in.prog.Header(hname)
		if !ok {
			continue
		}
		for _, f := range hdr.Fields {
			w.write(pkt.Get(p4ir.QName(hdr.Name, f.Name)), f.Bits)
		}
	}
	return append(w.data, payload...)
}

func refProcess(in *Instance, data []byte, ingressPort uint64) ([]refOutput, error) {
	pkt := newRefPacket(data, ingressPort)
	if err := refParse(in, pkt); err != nil {
		if errors.Is(err, ErrParseReject) || errors.Is(err, ErrTruncated) {
			return nil, nil
		}
		return nil, err
	}
	if err := refApplyTables(in, in.prog.Ingress, pkt); err != nil {
		return nil, err
	}
	if pkt.Dropped() {
		return nil, nil
	}
	if err := refApplyTables(in, in.prog.Egress, pkt); err != nil {
		return nil, err
	}
	if pkt.Dropped() {
		return nil, nil
	}
	pkt.Data = refDeparse(in, pkt)
	outs := []refOutput{{Port: pkt.Get(p4ir.MetaEgressPort), Packet: pkt}}
	if pkt.Get("meta.mirrored") != 0 {
		cl := pkt.Clone()
		cl.Set(p4ir.MetaEgressPort, pkt.Get("meta.mirror_port"))
		outs = append(outs, refOutput{Port: cl.Get(p4ir.MetaEgressPort), Packet: cl, Mirror: true})
	}
	return outs, nil
}
