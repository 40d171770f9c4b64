package pisa

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pera/internal/p4ir"
)

// The compiled pipeline against the reference (ref_test.go): the same
// frames through both, on two instances of one program with the same
// entries, must leave the same outputs, packets, errors and state.

// oddProgram has fields no byte boundary lines up with (widths 3, 5, 13,
// 7 and 1), a 7-bit header that misaligns the byte-multiple fields after
// it, a parser state that loops, a state that extracts nothing, and
// actions that wrap narrow fields, write and read registers and mirror.
// Its layout needs more than inlineSlots slots.
func oddProgram() *p4ir.Program {
	return &p4ir.Program{
		Name: "odd.p4",
		Headers: []*p4ir.HeaderType{
			{Name: "pre", Fields: []p4ir.Field{{Name: "v", Bits: 3}, {Name: "k", Bits: 5}}},
			{Name: "odd", Fields: []p4ir.Field{{Name: "a", Bits: 13}, {Name: "b", Bits: 3}}},
			{Name: "tag", Fields: []p4ir.Field{{Name: "t", Bits: 7}}},
			{Name: "opt", Fields: []p4ir.Field{{Name: "kind", Bits: 3}, {Name: "len", Bits: 5}, {Name: "val", Bits: 8}}},
			{Name: "tail", Fields: []p4ir.Field{{Name: "x", Bits: 16}, {Name: "y", Bits: 32}, {Name: "z", Bits: 1}}},
		},
		Parser: []*p4ir.ParserState{
			{Name: "start", Extract: "pre", SelectField: "pre.v",
				Transitions: []p4ir.Transition{{Value: 1, Next: "parse_odd"}, {Value: 2, Next: "parse_tag"}, {Value: 7, Next: "reject"}},
				Default:     "accept"},
			{Name: "parse_odd", Extract: "odd", SelectField: "odd.b",
				Transitions: []p4ir.Transition{{Value: 0, Next: "reject"}, {Value: 5, Next: "parse_opt"}},
				Default:     "parse_tag"},
			{Name: "parse_tag", Extract: "tag", SelectField: "tag.t",
				Transitions: []p4ir.Transition{{Value: 0x7f, Next: "reject"}},
				Default:     "dispatch"},
			{Name: "dispatch", SelectField: "meta.ingress_port",
				Transitions: []p4ir.Transition{{Value: 7, Next: "reject"}},
				Default:     "parse_opt"},
			{Name: "parse_opt", Extract: "opt", SelectField: "opt.kind",
				Transitions: []p4ir.Transition{{Value: 1, Next: "parse_opt"}, {Value: 2, Next: "parse_tail"}, {Value: 0, Next: "accept"}},
				Default:     "reject"},
			{Name: "parse_tail", Extract: "tail", Default: "accept"},
		},
		Registers: []*p4ir.Register{{Name: "r", Size: 24}, {Name: "c", Size: 4}},
		Actions: []*p4ir.Action{
			{Name: "bump", Params: []string{"step", "port"}, Ops: []p4ir.Op{
				{Kind: p4ir.OpAdd, Dst: "odd.a", Src: p4ir.P("step")},
				{Kind: p4ir.OpAdd, Dst: "pre.v", Src: p4ir.C(7)},
				{Kind: p4ir.OpSet, Dst: "tag.t", Src: p4ir.Fld("odd.a")},
				{Kind: p4ir.OpForward, Src: p4ir.P("port")},
			}},
			{Name: "mark", Ops: []p4ir.Op{
				{Kind: p4ir.OpSet, Dst: "meta.mark", Src: p4ir.Fld("opt.val")},
				{Kind: p4ir.OpSet, Dst: "opt.len", Src: p4ir.C(0x1ff)},
				{Kind: p4ir.OpRegWrite, Reg: "r", Index: p4ir.Fld("pre.k"), Src: p4ir.Fld("odd.a")},
				{Kind: p4ir.OpRegRead, Dst: "meta.seen", Reg: "r", Index: p4ir.Fld("opt.kind")},
				{Kind: p4ir.OpCount, Reg: "c", Index: p4ir.Fld("pre.v")},
				{Kind: p4ir.OpForward, Src: p4ir.C(3)},
			}},
			{Name: "spread", Ops: []p4ir.Op{
				{Kind: p4ir.OpSet, Dst: "tail.z", Src: p4ir.Fld("tail.y")},
				{Kind: p4ir.OpAdd, Dst: "tail.x", Src: p4ir.C(0xffff)},
				{Kind: p4ir.OpRegRead, Dst: "tail.y", Reg: "r", Index: p4ir.Fld("pre.k")},
				{Kind: p4ir.OpRegRead, Dst: "pre.k", Reg: "r", Index: p4ir.Fld("opt.val")},
			}},
			{Name: "mirror", Ops: []p4ir.Op{
				{Kind: p4ir.OpSet, Dst: "meta.mirror_port", Src: p4ir.C(9)},
				{Kind: p4ir.OpSet, Dst: "meta.mirrored", Src: p4ir.C(1)},
			}},
			{Name: "drop", Ops: []p4ir.Op{{Kind: p4ir.OpDrop}}},
			{Name: "nop"},
		},
		Ingress: []*p4ir.Table{
			{Name: "t_pre", Keys: []p4ir.Key{{Field: "pre.v", Kind: p4ir.MatchExact}, {Field: "pre.k", Kind: p4ir.MatchTernary}},
				Actions: []string{"bump", "mark", "drop", "nop"}, DefaultAction: "mark"},
			{Name: "t_lpm", Keys: []p4ir.Key{{Field: "odd.a", Kind: p4ir.MatchLPM, Bits: 13}},
				Actions: []string{"spread", "nop"}, DefaultAction: "bump",
				DefaultParams: map[string]uint64{"step": 1, "port": 5}},
		},
		Egress: []*p4ir.Table{
			{Name: "t_tag", Keys: []p4ir.Key{{Field: "tag.t", Kind: p4ir.MatchExact}},
				Actions: []string{"mirror", "nop"}},
		},
	}
}

type progSetup struct {
	name    string
	prog    *p4ir.Program
	entries map[string][]p4ir.Entry
}

func route(dst, port uint64) p4ir.Entry {
	return p4ir.Entry{Matches: []p4ir.KeyMatch{{Value: dst}}, Action: "fwd", Params: map[string]uint64{"port": port}}
}

var routes = []p4ir.Entry{route(10, 2), route(200, 2), route(100, 1)}

// differentialSetups is every library program with testbed-like entries
// (the monitor counting some flows, the rogue forwarder mirroring one
// source) plus oddProgram.
var differentialSetups = []progSetup{
	{"forwarding", p4ir.NewForwarding("fwd_v1.p4"),
		map[string][]p4ir.Entry{"ipv4_fwd": routes}},
	{"firewall", p4ir.NewFirewall("firewall_v5.p4"),
		map[string][]p4ir.Entry{"ipv4_fwd": routes, "acl_filter": {{
			Matches:  []p4ir.KeyMatch{{Value: 66, Mask: ^uint64(0)}, {}, {Value: 22, Mask: ^uint64(0)}},
			Priority: 10, Action: "drop",
		}}}},
	{"acl", p4ir.NewACL("ACL_v3.p4"),
		map[string][]p4ir.Entry{"ipv4_fwd": routes, "allowlist": {
			{Matches: []p4ir.KeyMatch{{Value: 100}, {Value: 443}}, Action: "nop"},
			{Matches: []p4ir.KeyMatch{{Value: 7}, {Value: 80}}, Action: "nop"},
			{Matches: []p4ir.KeyMatch{{Value: 200}, {Value: 443}}, Action: "nop"},
		}}},
	{"monitor", p4ir.NewMonitor("mon"),
		map[string][]p4ir.Entry{"ipv4_fwd": routes, "flow_stats": {
			{Matches: []p4ir.KeyMatch{{Value: 7}, {Value: 10}}, Action: "count_flow", Params: map[string]uint64{"idx": 42}},
			{Matches: []p4ir.KeyMatch{{Value: 100}, {Value: 200}}, Action: "count_flow", Params: map[string]uint64{"idx": 4095}},
			{Matches: []p4ir.KeyMatch{{Value: 66}, {Value: 10}}, Action: "count_flow", Params: map[string]uint64{"idx": 5000}},
		}}},
	{"rogue", p4ir.NewRogueForwarding("fwd_v1.p4", 99),
		map[string][]p4ir.Entry{"ipv4_fwd": routes, "intercept": {
			{Matches: []p4ir.KeyMatch{{Value: 7, Mask: ^uint64(0)}}, Action: "mirror", Priority: 1},
		}}},
	{"odd", oddProgram(), map[string][]p4ir.Entry{
		"t_pre": {
			{Matches: []p4ir.KeyMatch{{Value: 1}, {Value: 0x10, Mask: 0x10}}, Priority: 2, Action: "bump",
				Params: map[string]uint64{"step": 4090, "port": 2}},
			{Matches: []p4ir.KeyMatch{{Value: 2}, {}}, Action: "mark"},
			{Matches: []p4ir.KeyMatch{{Value: 3}, {}}, Action: "drop"},
			{Matches: []p4ir.KeyMatch{{Value: 4}, {Value: 1, Mask: 1}}, Action: "nop"},
		},
		"t_lpm": {
			{Matches: []p4ir.KeyMatch{{Value: 5 << 10, PrefixLen: 3}}, Action: "spread"},
			{Matches: []p4ir.KeyMatch{{Value: 0x1abc, PrefixLen: 13}}, Action: "nop"},
		},
		"t_tag": {
			{Matches: []p4ir.KeyMatch{{Value: 0x2f}}, Action: "mirror"},
			{Matches: []p4ir.KeyMatch{{Value: 5}}, Action: "mirror"},
		},
	}},
}

// pair loads two instances of s's program with its entries: one runs
// compiled, the other the reference.
func (s progSetup) pair(t testing.TB) (*Instance, *Instance) {
	t.Helper()
	var ins [2]*Instance
	for i := range ins {
		in, err := Load(s.prog)
		if err != nil {
			t.Fatal(err)
		}
		for table, es := range s.entries {
			for _, e := range es {
				if err := in.InstallEntry(table, e); err != nil {
					t.Fatal(err)
				}
			}
		}
		ins[i] = in
	}
	return ins[0], ins[1]
}

// sameProcess runs frame through got compiled and through want as the
// reference and reports the first difference.
func sameProcess(got, want *Instance, frame []byte, port uint64) error {
	outs, err := got.Process(frame, port)
	refOuts, refErr := refProcess(want, frame, port)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		return fmt.Errorf("error %v, reference %v", err, refErr)
	}
	if len(outs) != len(refOuts) {
		return fmt.Errorf("%d outputs, reference %d", len(outs), len(refOuts))
	}
	for i, o := range outs {
		r := refOuts[i]
		switch {
		case o.Port != r.Port || o.Mirror != r.Mirror:
			return fmt.Errorf("output %d: port %d mirror %v, reference %d %v", i, o.Port, o.Mirror, r.Port, r.Mirror)
		case !bytes.Equal(o.Packet.Data, r.Packet.Data):
			return fmt.Errorf("output %d: data %x, reference %x", i, o.Packet.Data, r.Packet.Data)
		case o.Packet.String() != r.Packet.String():
			return fmt.Errorf("output %d: packet %s, reference %s", i, o.Packet, r.Packet)
		}
	}
	return sameState(got, want)
}

// sameParse parses frame as a packet from NewPacket through got and as
// the reference's packet through want.
func sameParse(got, want *Instance, frame []byte, port uint64) error {
	pkt, ref := NewPacket(frame, port), newRefPacket(frame, port)
	err, refErr := got.Parse(pkt), refParse(want, ref)
	switch {
	case fmt.Sprint(err) != fmt.Sprint(refErr):
		return fmt.Errorf("parse error %v, reference %v", err, refErr)
	case pkt.String() != ref.String():
		return fmt.Errorf("parsed %s, reference %s", pkt, ref)
	case fmt.Sprint(pkt.Extracted()) != fmt.Sprint(ref.extracted):
		return fmt.Errorf("extracted %v, reference %v", pkt.Extracted(), ref.extracted)
	case !bytes.Equal(got.Deparse(pkt), refDeparse(want, ref)):
		return fmt.Errorf("deparsed %x, reference %x", got.Deparse(pkt), refDeparse(want, ref))
	}
	return nil
}

func sameState(got, want *Instance) error {
	if got.StateDigest() != want.StateDigest() {
		return fmt.Errorf("state digest %x, reference %x", got.StateDigest(), want.StateDigest())
	}
	if got.PacketsParsed() != want.PacketsParsed() {
		return fmt.Errorf("%d packets parsed, reference %d", got.PacketsParsed(), want.PacketsParsed())
	}
	return nil
}

// frameCorpus is a seeded mix for prog: TCP, UDP and non-IP frames with
// payloads from 0 to 1,400 B, every truncation of one frame, random
// bytes, and for a program without the standard headers, frames steered
// into each parser branch, the looping state included.
func frameCorpus(prog *p4ir.Program, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var frames [][]byte
	add := func(b []byte, err error) {
		if err == nil {
			frames = append(frames, b)
		}
	}
	srcs := []uint64{7, 66, 100, 200, 1, uint64(rng.Uint32())}
	dsts := []uint64{10, 200, 100, 99, uint64(rng.Uint32())}
	dports := []uint64{22, 80, 443, uint64(rng.Intn(1 << 16))}
	sizes := []int{0, 1, 7, 63, 64, 65, 512, 1400}
	for i, src := range srcs {
		for j, dst := range dsts {
			dport := dports[(i+j)%len(dports)]
			size := sizes[(i*len(dsts)+j)%len(sizes)]
			add(IPFrame(prog, src, dst, uint64(rng.Intn(1<<16)), dport, payload(size)))
			for _, proto := range []uint64{17, 1} {
				add(BuildFrame(prog, []string{"eth", "ip", "tp"}, map[string]uint64{
					"eth.typ": p4ir.EtherTypeIP, "ip.src": src, "ip.dst": dst, "ip.proto": proto,
					"ip.ttl": 1, "tp.sport": 53, "tp.dport": dport, "tp.flags": 0x12,
				}, payload(rng.Intn(1401))))
			}
		}
	}
	add(BuildFrame(prog, []string{"eth"}, map[string]uint64{"eth.typ": 0x0806}, payload(28)))
	if full, err := IPFrame(prog, 7, 10, 1234, 80, payload(64)); err == nil {
		for n := 0; n <= len(full); n++ {
			frames = append(frames, full[:n])
		}
	}
	for i := 0; i < 64; i++ {
		frames = append(frames, payload(rng.Intn(80)))
	}
	if _, ok := prog.Header("pre"); ok {
		for v := uint64(0); v < 8; v++ {
			for i := 0; i < 24; i++ {
				b := payload(2 + rng.Intn(40))
				b[0] = byte(v<<5) | b[0]&0x1f
				frames = append(frames, b)
			}
		}
		// pre.v=2: a tag, then n looping options (opt.kind=1) and a tail;
		// 70 options run past the parser's step bound. pre.v=1: odd.a
		// in t_lpm's spread prefix and a tag t_tag mirrors.
		for _, n := range []int{0, 3, 40, 70} {
			w := bitWriter{}
			w.write(2, 3)
			w.write(0x10, 5)
			w.write(0x2f, 7)
			for i := 0; i < n; i++ {
				w.write(1, 3)
				w.write(uint64(i), 5)
				w.write(uint64(i), 8)
			}
			for _, f := range [][2]uint64{{2, 3}, {0, 5}, {0x77, 8}, {0xbeef, 16}, {0xdeadbeef, 32}, {1, 1}} {
				w.write(f[0], int(f[1]))
			}
			frames = append(frames, append(w.data, payload(n)...))
		}
		for _, k := range []uint64{0, 0x10, 0x17} {
			w := bitWriter{}
			for _, f := range [][2]uint64{{1, 3}, {k, 5}, {0x1400 | k, 13}, {3, 3}, {0x2f, 7}, {0, 3}, {0, 5}, {9, 8}} {
				w.write(f[0], int(f[1]))
			}
			full := append(w.data, payload(5)...)
			for n := 0; n <= len(full); n++ {
				frames = append(frames, full[:n])
			}
		}
	}
	return frames
}

func TestCompiledMatchesReference(t *testing.T) {
	for _, s := range differentialSetups {
		t.Run(s.name, func(t *testing.T) {
			got, want := s.pair(t)
			parsedGot, parsedWant := s.pair(t)
			for i, frame := range frameCorpus(got.Program(), 23) {
				for _, port := range []uint64{1, 7} {
					if err := sameProcess(got, want, frame, port); err != nil {
						t.Fatalf("frame %d (%x) port %d: %v", i, frame, port, err)
					}
					if err := sameParse(parsedGot, parsedWant, frame, port); err != nil {
						t.Fatalf("frame %d (%x) port %d: %v", i, frame, port, err)
					}
				}
			}
		})
	}
}

// TestCompiledMatchesReferenceForeignPackets covers packets that do not
// start on the instance's own layout: a NewPacket with fields set before
// Parse, a name outside every layout, and a packet one program parsed
// that another program's tables then look up and deparse.
func TestCompiledMatchesReferenceForeignPackets(t *testing.T) {
	fwd, fwdRef := differentialSetups[0].pair(t)
	mon, monRef := differentialSetups[3].pair(t)
	acl, aclRef := differentialSetups[2].pair(t)
	odd, oddRef := differentialSetups[5].pair(t)
	frame, err := IPFrame(fwd.Program(), 7, 10, 1234, 80, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, pkt *Packet, ref *refPacket) {
		t.Helper()
		if pkt.String() != ref.String() {
			t.Fatalf("%s: %s, reference %s", step, pkt, ref)
		}
		for _, name := range []string{"ip.ttl", "meta.custom", "x.y", "ip.src", "pre.v"} {
			if pkt.Get(name) != ref.Get(name) {
				t.Fatalf("%s: %s = %d, reference %d", step, name, pkt.Get(name), ref.Get(name))
			}
		}
	}

	pkt, ref := NewPacket(frame, 3), newRefPacket(frame, 3)
	for _, p := range []interface{ Set(string, uint64) }{pkt, ref} {
		p.Set("ip.ttl", 9)      // in the layout; Parse overwrites it
		p.Set("meta.custom", 5) // outside every layout
		p.Set("x.y", 6)
		p.Set("ip.src", 4)
	}
	check("set before parse", pkt, ref)
	if pkt.FlowHash() == NewPacket(frame, 3).FlowHash() {
		t.Fatal("a spilled flow field does not reach FlowHash")
	}
	if err := fwd.Parse(pkt); err != nil {
		t.Fatal(err)
	}
	if err := refParse(fwdRef, ref); err != nil {
		t.Fatal(err)
	}
	check("parsed", pkt, ref)

	// The forwarder's packet through the monitor's tables, which count
	// its flow, and then the ACL's.
	if err := mon.applyTables(mon.ingress, pkt); err != nil {
		t.Fatal(err)
	}
	if err := refApplyTables(monRef, monRef.prog.Ingress, ref); err != nil {
		t.Fatal(err)
	}
	check("monitor tables", pkt, ref)
	if err := sameState(mon, monRef); err != nil {
		t.Fatal(err)
	}
	if got, want := mon.Deparse(pkt), refDeparse(monRef, ref); !bytes.Equal(got, want) {
		t.Fatalf("monitor deparse %x, reference %x", got, want)
	}
	cl, refCl := pkt.Clone(), ref.Clone()
	cl.Set("meta.custom", 8)
	refCl.Set("meta.custom", 8)
	check("clone", cl, refCl)
	check("clone leaves its original", pkt, ref)
	if err := acl.applyTables(acl.ingress, pkt); err != nil {
		t.Fatal(err)
	}
	if err := refApplyTables(aclRef, aclRef.prog.Ingress, ref); err != nil {
		t.Fatal(err)
	}
	check("acl tables", pkt, ref)

	// The same headers declared in another order number their slots
	// differently: a packet that program parsed, and one that only had
	// fields Set, through the monitor's tables.
	rotated := p4ir.NewForwarding("rotated.p4")
	h := rotated.Headers
	rotated.Headers = []*p4ir.HeaderType{h[1], h[2], h[0]}
	rotatedIn, err := Load(rotated)
	if err != nil {
		t.Fatal(err)
	}
	spkt, sref := NewPacket(frame, 1), newRefPacket(frame, 1)
	if err := rotatedIn.Parse(spkt); err != nil {
		t.Fatal(err)
	}
	if err := refParse(rotatedIn, sref); err != nil {
		t.Fatal(err)
	}
	bare, bareRef := NewPacket(nil, 1), newRefPacket(nil, 1)
	bare.Set("ip.src", 100)
	bare.Set("ip.dst", 200)
	bareRef.Set("ip.src", 100)
	bareRef.Set("ip.dst", 200)
	for _, p := range []struct {
		step string
		pkt  *Packet
		ref  *refPacket
	}{{"rotated layout", spkt, sref}, {"fields set", bare, bareRef}} {
		if err := mon.applyTables(mon.ingress, p.pkt); err != nil {
			t.Fatal(err)
		}
		if err := refApplyTables(monRef, monRef.prog.Ingress, p.ref); err != nil {
			t.Fatal(err)
		}
		check(p.step, p.pkt, p.ref)
		if err := sameState(mon, monRef); err != nil {
			t.Fatal(err)
		}
	}

	// A program that declares none of the parsed headers deparses them
	// to nothing and still sees every field by name.
	if got, want := odd.Deparse(pkt), refDeparse(oddRef, ref); !bytes.Equal(got, want) {
		t.Fatalf("odd deparse %x, reference %x", got, want)
	}
	check("odd layout", pkt, ref)
	if fmt.Sprint(pkt.Extracted()) != fmt.Sprint(ref.extracted) {
		t.Fatalf("extracted %v, reference %v", pkt.Extracted(), ref.extracted)
	}
	if got, want := fwd.Deparse(pkt), refDeparse(fwdRef, ref); !bytes.Equal(got, want) {
		t.Fatalf("back on the forwarder: deparse %x, reference %x", got, want)
	}
}

// TestFieldCodecMatchesBitLoop: readField and writeField agree with the
// reference's bit reader and writer at every offset and width.
func TestFieldCodecMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		lead, bits := rng.Intn(24), 1+rng.Intn(64)
		v := rng.Uint64()
		w := bitWriter{}
		w.write(0, lead)
		w.write(v, bits)
		buf := make([]byte, (lead+bits+7)/8)
		writeField(buf, lead, bits, v)
		if !bytes.Equal(buf, w.data) {
			t.Fatalf("write %d bits at %d: %x, bit loop %x", bits, lead, buf, w.data)
		}
		r := bitReader{data: buf, off: lead}
		want, _ := r.read(bits)
		if got := readField(buf, lead, bits); got != want || got != v&mask(bits) {
			t.Fatalf("read %d bits at %d: %x, bit loop %x", bits, lead, got, want)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestProcessAllocations: Process allocates the packet with its output
// and the deparsed frame, nothing else, on a layout that fits inline.
func TestProcessAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	in, _ := differentialSetups[1].pair(t)
	frame, err := IPFrame(in.Program(), 100, 200, 4000, 443, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if outs, err := in.Process(frame, 1); err != nil || len(outs) != 1 {
			t.Fatalf("process: %v %v", outs, err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Process allocated %.1f times, want 2", allocs)
	}
}

// FuzzProcess feeds untrusted frame bytes to every differential setup,
// compiled and reference side by side.
func FuzzProcess(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, s := range differentialSetups {
			got, want := s.pair(t)
			for _, port := range []uint64{1, 7} {
				if err := sameProcess(got, want, frame, port); err != nil {
					t.Fatalf("%s port %d: %v", s.name, port, err)
				}
				if err := sameParse(got, want, frame, port); err != nil {
					t.Fatalf("%s port %d: %v", s.name, port, err)
				}
			}
		}
	})
}
