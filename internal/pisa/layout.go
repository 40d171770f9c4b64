package pisa

import (
	"slices"
	"strings"

	"pera/internal/p4ir"
)

// A layout is a program compiled for the packet path. Every name the
// program can touch — the five metadata names below, each header field,
// and each parser-select, table-key and action field — gets a fixed
// slot, and parser states, table keys and action ops carry resolved
// slots and width masks, so the pipeline indexes arrays where it would
// otherwise hash names. A layout is built once per program (metaFor)
// and never changes after, so any number of goroutines share it.
// Compiling trusts what Validate checked: every header, state, action
// and register a program names exists.

// Slots every layout gives the pipeline's own metadata, in this order.
const (
	slotIngressPort = iota
	slotEgressPort
	slotDrop
	slotMirrored
	slotMirrorPort
	metaSlots
)

// Mirroring convention: programs set meta.mirrored=1 and
// meta.mirror_port to clone the frame (see p4ir.NewRogueForwarding).
var metaNames = [metaSlots]string{
	p4ir.MetaIngressPort, p4ir.MetaEgressPort, p4ir.MetaDrop,
	"meta.mirrored", "meta.mirror_port",
}

// flowFields are the fields FlowHash hashes, in order.
var flowFields = [...]string{"ip.src", "ip.dst", "ip.proto", "tp.sport", "tp.dport"}

// Parser transitions out of the program's states.
const (
	stateAccept = -1
	stateReject = -2
)

type layout struct {
	names []string             // slot → qualified name
	slots map[string]int       // qualified name → slot
	flow  [len(flowFields)]int // FlowHash's fields' slots, -1 for none

	hdrs    map[string]*hdrPlan
	states  []statePlan // states[0] is the start state
	actions map[string]*actPlan
	tables  map[*p4ir.Table]*tablePlan

	regIdx   map[string]int // register name → index in the program
	regOrder []int          // register indices sorted by name
}

// hdrPlan is one header type: its fields' slots and widths in extraction
// order, and its total width.
type hdrPlan struct {
	name   string
	fields []fieldPlan
	bits   int
}

type fieldPlan struct {
	slot, bits int
}

type statePlan struct {
	hdr   *hdrPlan // extracted header, nil for none
	sel   int      // select field's slot, -1 when the state always goes to def
	trans []transPlan
	def   int // next state: an index into states, stateAccept or stateReject
}

type transPlan struct {
	value uint64
	next  int
}

type tablePlan struct {
	keys      []keyPlan
	def       *actPlan // default action, nil for none
	defParams []uint64
}

type keyPlan struct {
	slot int
	kind p4ir.MatchKind
	bits int // LPM width, 64 when the key leaves it unset
}

type actPlan struct {
	params []string // declared parameter names; op params index into them
	ops    []opPlan
}

type opPlan struct {
	kind     p4ir.OpKind
	dst      int    // written slot (set, add, regread)
	mask     uint64 // what the written value is truncated to
	src, idx valPlan
	reg      int // register index (regwrite, regread, count)
}

// valPlan is a resolved value source: the constant itself, or the slot
// of a field, or the index of an action parameter.
type valPlan struct {
	kind  p4ir.ValKind
	c     uint64
	index int
}

// metaLayout binds packets from NewPacket: the metadata slots alone, so
// any other Set spills until a pipeline binds the packet to its own
// program's layout.
var metaLayout = newLayout()

func newLayout() *layout {
	l := &layout{slots: make(map[string]int)}
	for _, name := range metaNames {
		l.slot(name)
	}
	for i := range l.flow {
		l.flow[i] = -1
	}
	return l
}

// slot returns name's slot, adding one for a new name.
func (l *layout) slot(name string) int {
	if s, ok := l.slots[name]; ok {
		return s
	}
	s := len(l.names)
	l.slots[name] = s
	l.names = append(l.names, name)
	return s
}

// slotOf returns name's slot, if the layout has one.
func (l *layout) slotOf(name string) (int, bool) {
	if l == nil {
		return 0, false
	}
	s, ok := l.slots[name]
	return s, ok
}

// compile builds prog's layout; prog has passed Validate.
func compile(prog *p4ir.Program) *layout {
	l := newLayout()
	l.hdrs = make(map[string]*hdrPlan, len(prog.Headers))
	for _, h := range prog.Headers {
		hp := &hdrPlan{name: h.Name, fields: make([]fieldPlan, len(h.Fields))}
		for i, f := range h.Fields {
			hp.fields[i] = fieldPlan{slot: l.slot(p4ir.QName(h.Name, f.Name)), bits: f.Bits}
			hp.bits += f.Bits
		}
		l.hdrs[h.Name] = hp
	}

	state := map[string]int{p4ir.StateAccept: stateAccept, p4ir.StateReject: stateReject}
	for i, s := range prog.Parser {
		state[s.Name] = i
	}
	l.states = make([]statePlan, len(prog.Parser))
	for i, s := range prog.Parser {
		sp := statePlan{hdr: l.hdrs[s.Extract], sel: -1, def: state[s.Default]}
		if s.SelectField != "" {
			sp.sel = l.slot(s.SelectField)
		}
		for _, tr := range s.Transitions {
			sp.trans = append(sp.trans, transPlan{tr.Value, state[tr.Next]})
		}
		l.states[i] = sp
	}

	l.regIdx = make(map[string]int, len(prog.Registers))
	for i, r := range prog.Registers {
		l.regIdx[r.Name] = i
		l.regOrder = append(l.regOrder, i)
	}
	slices.SortFunc(l.regOrder, func(a, b int) int {
		return strings.Compare(prog.Registers[a].Name, prog.Registers[b].Name)
	})

	l.actions = make(map[string]*actPlan, len(prog.Actions))
	for _, a := range prog.Actions {
		l.actions[a.Name] = l.compileAction(prog, a)
	}
	l.tables = make(map[*p4ir.Table]*tablePlan, len(prog.Ingress)+len(prog.Egress))
	for _, t := range slices.Concat(prog.Ingress, prog.Egress) {
		tp := &tablePlan{keys: make([]keyPlan, len(t.Keys))}
		for i, k := range t.Keys {
			tp.keys[i] = keyPlan{slot: l.slot(k.Field), kind: k.Kind, bits: k.Bits}
			if k.Bits == 0 {
				tp.keys[i].bits = 64
			}
		}
		if t.DefaultAction != "" {
			tp.def = l.actions[t.DefaultAction]
			tp.defParams = tp.def.bind(t.DefaultParams)
		}
		l.tables[t] = tp
	}

	for i, name := range flowFields {
		if s, ok := l.slots[name]; ok {
			l.flow[i] = s
		}
	}
	return l
}

func (l *layout) compileAction(prog *p4ir.Program, a *p4ir.Action) *actPlan {
	ap := &actPlan{params: a.Params, ops: make([]opPlan, len(a.Ops))}
	val := func(v p4ir.Val) valPlan {
		vp := valPlan{kind: v.Kind, c: v.Const}
		switch v.Kind {
		case p4ir.ValField:
			vp.index = l.slot(v.Name)
		case p4ir.ValParam:
			vp.index = slices.Index(a.Params, v.Name)
		}
		return vp
	}
	for i, op := range a.Ops {
		p := opPlan{kind: op.Kind, mask: ^uint64(0), src: val(op.Src), idx: val(op.Index), reg: l.regIdx[op.Reg]}
		switch op.Kind {
		case p4ir.OpSet, p4ir.OpAdd:
			p.dst, p.mask = l.slot(op.Dst), widthMask(prog, op.Dst)
		case p4ir.OpRegRead:
			p.dst = l.slot(op.Dst)
		}
		ap.ops[i] = p
	}
	return ap
}

// bind resolves a table entry's parameters into the action's declared
// order; an unbound parameter reads 0.
func (a *actPlan) bind(params map[string]uint64) []uint64 {
	if len(a.params) == 0 {
		return nil
	}
	vals := make([]uint64, len(a.params))
	for i, p := range a.params {
		vals[i] = params[p]
	}
	return vals
}

// widthMask is what a write to qname is truncated to: the declared
// width of a header field, all 64 bits for metadata and for any name
// that is not a declared field.
func widthMask(prog *p4ir.Program, qname string) uint64 {
	hdrName, fieldName, ok := strings.Cut(qname, ".")
	if !ok || hdrName == "meta" {
		return ^uint64(0)
	}
	if hdr, ok := prog.Header(hdrName); ok {
		if f, ok := hdr.Field(fieldName); ok {
			return mask(f.Bits)
		}
	}
	return ^uint64(0)
}
