package pisa

import (
	"errors"
	"fmt"

	"pera/internal/p4ir"
)

// Pipeline execution: parse → ingress tables → egress tables → deparse.
//
// The stages mirror the paper's Fig. 3 switch diagram. Evidence-handling
// stages (Sign/Verify, Create/Inspect/Compose) are layered on top by
// internal/pera; this file is the plain PISA forwarding substrate those
// stages extend. Every stage runs on the program's compiled layout
// (layout.go): fields are slots, not names.

// Errors from pipeline execution.
var (
	ErrParseReject   = errors.New("pisa: parser rejected packet")
	ErrNoParserStart = errors.New("pisa: parser has no start state")
)

// maxParserSteps bounds parser state transitions per packet, so cyclic
// parser graphs (legal to declare, ill-advised to run) terminate.
const maxParserSteps = 64

// Output is one frame emitted by the pipeline.
type Output struct {
	Port   uint64
	Packet *Packet
	Mirror bool // true if this output came from a mirror/clone
}

// Parse runs the parser state machine over pkt.Data, setting the
// extracted header fields. The first declared state is the start state.
func (in *Instance) Parse(pkt *Packet) error {
	l := in.lay
	if len(l.states) == 0 {
		return ErrNoParserStart
	}
	pkt.bind(l)
	data, off := pkt.Data, 0
	st := &l.states[0]
	for steps := 0; steps < maxParserSteps; steps++ {
		if h := st.hdr; h != nil {
			for _, f := range h.fields {
				if off+f.bits > len(data)*8 {
					return fmt.Errorf("extracting %s: %w", l.names[f.slot], ErrTruncated)
				}
				pkt.set(f.slot, readField(data, off, f.bits))
				off += f.bits
			}
			pkt.ext = append(pkt.ext, h)
		}
		next := st.def
		if st.sel >= 0 {
			v := pkt.get(st.sel)
			for _, tr := range st.trans {
				if tr.value == v {
					next = tr.next
					break
				}
			}
		}
		switch next {
		case stateAccept:
			pkt.payloadOff = off
			in.parsedN.Add(1)
			return nil
		case stateReject:
			return ErrParseReject
		}
		st = &l.states[next]
	}
	return fmt.Errorf("pisa: parser exceeded %d steps", maxParserSteps)
}

// applyTables runs a pipeline of tables in order, each looked up in its
// published snapshot without a lock. Processing stops early if the
// packet is dropped.
func (in *Instance) applyTables(tables []*tableState, pkt *Packet) error {
	pkt.bind(in.lay)
	for _, ts := range tables {
		if pkt.get(slotDrop) != 0 {
			return nil
		}
		act, params := ts.plan.def, ts.plan.defParams
		s := ts.snap.Load()
		if i, hit := s.lookup(ts.plan.keys, pkt); hit {
			act, params = s.acts[i].act, s.acts[i].params
		}
		if act == nil {
			continue // no default: table miss is a no-op
		}
		if err := in.execAction(act, params, pkt); err != nil {
			return err
		}
	}
	return nil
}

// execAction runs an action's operations against the packet.
func (in *Instance) execAction(act *actPlan, params []uint64, pkt *Packet) error {
	eval := func(v valPlan) uint64 {
		switch v.kind {
		case p4ir.ValConst:
			return v.c
		case p4ir.ValField:
			return pkt.get(v.index)
		case p4ir.ValParam:
			if v.index >= 0 && v.index < len(params) {
				return params[v.index]
			}
		}
		return 0
	}
	for i := range act.ops {
		op := &act.ops[i]
		switch op.kind {
		case p4ir.OpSet:
			pkt.set(op.dst, eval(op.src)&op.mask)
		case p4ir.OpAdd:
			pkt.set(op.dst, (pkt.get(op.dst)+eval(op.src))&op.mask)
		case p4ir.OpForward:
			pkt.set(slotEgressPort, eval(op.src))
		case p4ir.OpDrop:
			pkt.set(slotDrop, 1)
		case p4ir.OpRegWrite:
			in.regWrite(op.reg, eval(op.idx), eval(op.src))
		case p4ir.OpRegRead:
			pkt.set(op.dst, in.regRead(op.reg, eval(op.idx)))
		case p4ir.OpCount:
			in.count(op.reg, eval(op.idx))
		default:
			return fmt.Errorf("pisa: unknown op %v", op.kind)
		}
	}
	return nil
}

// Deparse re-serializes the packet: extracted headers (with any field
// modifications) followed by the original payload, in one exact-size
// allocation.
func (in *Instance) Deparse(pkt *Packet) []byte {
	pkt.bind(in.lay)
	payload := pkt.Payload()
	bits := 0
	for _, h := range pkt.ext {
		bits += h.bits
	}
	out := make([]byte, (bits+7)/8+len(payload))
	off := 0
	for _, h := range pkt.ext {
		for _, f := range h.fields {
			writeField(out, off, f.bits, pkt.get(f.slot))
			off += f.bits
		}
	}
	copy(out[(bits+7)/8:], payload)
	return out
}

// processed is what Process allocates for a frame besides the deparsed
// bytes: the packet and its output.
type processed struct {
	pkt Packet
	out [1]Output
}

// Process runs the full pipeline over raw frame bytes arriving on
// ingressPort and returns the emitted outputs (possibly several, when the
// program mirrors). A parse reject or a drop yields no outputs and no
// error; substrate errors (unknown ops, etc.) are returned.
func (in *Instance) Process(data []byte, ingressPort uint64) ([]Output, error) {
	o := new(processed)
	pkt := &o.pkt
	pkt.init(data, in.lay)
	pkt.set(slotIngressPort, ingressPort)
	if err := in.Parse(pkt); err != nil {
		if errors.Is(err, ErrParseReject) || errors.Is(err, ErrTruncated) {
			return nil, nil
		}
		return nil, err
	}
	if err := in.applyTables(in.ingress, pkt); err != nil {
		return nil, err
	}
	if pkt.get(slotDrop) != 0 {
		return nil, nil
	}
	if err := in.applyTables(in.egress, pkt); err != nil {
		return nil, err
	}
	if pkt.get(slotDrop) != 0 {
		return nil, nil
	}
	pkt.Data = in.Deparse(pkt)
	o.out[0] = Output{Port: pkt.get(slotEgressPort), Packet: pkt}
	outs := o.out[:]
	if pkt.get(slotMirrored) != 0 {
		cl := pkt.Clone()
		cl.set(slotEgressPort, pkt.get(slotMirrorPort))
		outs = append(outs, Output{Port: cl.get(slotEgressPort), Packet: cl, Mirror: true})
	}
	return outs, nil
}
