package p4ir

import (
	"strings"
	"testing"
)

const demoSrc = `
program demo

header eth { dst:48 src:48 typ:16 }
header ip  { src:32 dst:32 proto:8 ttl:8 }

parser {
  state start {
    extract eth
    select eth.typ { 0x0800 -> parse_ip  default -> accept }
  }
  state parse_ip { extract ip }
}

register flow_count[4096]

action fwd(port) { forward $port }
action drop_pkt() { drop }
action bump(idx) { add ip.ttl += 1  count flow_count[$idx]  set meta.seen = 1 }
action mirror() { regwrite flow_count[0] = ip.src  regread meta.last = flow_count[0] }

table ipv4_fwd {
  key { ip.dst: exact }
  actions { fwd drop_pkt bump }
  default drop_pkt
  max 1024
}

table filterT {
  key { ip.src: ternary ip.dst: lpm }
  actions { drop_pkt mirror }
}

ingress { filterT ipv4_fwd }
egress { }
`

func TestParseProgramDemo(t *testing.T) {
	prog, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "demo" {
		t.Fatalf("name %q", prog.Name)
	}
	if len(prog.Headers) != 2 || prog.Headers[0].BitWidth() != 112 {
		t.Fatalf("headers: %+v", prog.Headers)
	}
	if len(prog.Parser) != 2 {
		t.Fatalf("parser states: %d", len(prog.Parser))
	}
	start := prog.Parser[0]
	if start.Extract != "eth" || start.SelectField != "eth.typ" ||
		len(start.Transitions) != 1 || start.Transitions[0].Value != 0x0800 ||
		start.Transitions[0].Next != "parse_ip" || start.Default != StateAccept {
		t.Fatalf("start state: %+v", start)
	}
	if prog.Parser[1].Default != StateAccept {
		t.Fatalf("implicit accept: %+v", prog.Parser[1])
	}
	if len(prog.Registers) != 1 || prog.Registers[0].Size != 4096 {
		t.Fatalf("registers: %+v", prog.Registers)
	}
	if len(prog.Actions) != 4 {
		t.Fatalf("actions: %d", len(prog.Actions))
	}
	bump, _ := prog.Action("bump")
	if len(bump.Ops) != 3 || bump.Ops[0].Kind != OpAdd || bump.Ops[1].Kind != OpCount ||
		bump.Ops[1].Index.Kind != ValParam || bump.Ops[2].Kind != OpSet {
		t.Fatalf("bump ops: %+v", bump.Ops)
	}
	mirror, _ := prog.Action("mirror")
	if mirror.Ops[0].Kind != OpRegWrite || mirror.Ops[0].Src.Kind != ValField ||
		mirror.Ops[1].Kind != OpRegRead || mirror.Ops[1].Dst != "meta.last" {
		t.Fatalf("mirror ops: %+v", mirror.Ops)
	}
	// Pipeline order preserved.
	if len(prog.Ingress) != 2 || prog.Ingress[0].Name != "filterT" || prog.Ingress[1].Name != "ipv4_fwd" {
		t.Fatalf("ingress: %+v", prog.Ingress)
	}
	ft := prog.Ingress[0]
	if len(ft.Keys) != 2 || ft.Keys[0].Kind != MatchTernary || ft.Keys[1].Kind != MatchLPM {
		t.Fatalf("filterT keys: %+v", ft.Keys)
	}
	fwdT := prog.Ingress[1]
	if fwdT.DefaultAction != "drop_pkt" || fwdT.MaxEntries != 1024 {
		t.Fatalf("ipv4_fwd: %+v", fwdT)
	}
}

func TestParseProgramErrors(t *testing.T) {
	bad := []string{
		``,
		`program`,
		`program p junk`,
		`program p header h {`,
		`program p header h { f }`,
		`program p header h { f: }`,
		`program p parser { state s { bogus } } ingress { }`,
		`program p table t { wrong } ingress { t }`,
		`program p table t { key { f: magic } } ingress { t }`,
		`program p ingress { ghost }`,
		`program p action a() { fly } ingress { }`,
		`program p action a() { set x } ingress { }`,
		`program p register r[] ingress { }`,
		`program p $x`,
		"program p \x01",
		// Declared but unplaced table.
		`program p header h { f:8 } parser { state s { extract h } } action a() { drop } table t { key { h.f: exact } actions { a } } ingress { }`,
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("%.60q parsed", src)
		}
	}
}

func TestParseValidatesSemantics(t *testing.T) {
	// Syntactically fine, semantically broken (unknown header in state).
	src := `program p
header h { f:8 }
parser { state s { extract ghost } }
ingress { }`
	if _, err := ParseProgram(src); err == nil {
		t.Fatal("semantic error not caught")
	}
}

// Format/Parse round trip on the library programs and the demo.
func TestFormatParseRoundTrip(t *testing.T) {
	progs := []*Program{
		NewForwarding("fwd_v1.p4"),
		NewFirewall("firewall_v5.p4"),
		NewACL("ACL_v3.p4"),
		NewMonitor("monitor_v2.p4"),
		NewRogueForwarding("rogue.p4", 99),
	}
	demo, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, demo)
	for _, p := range progs {
		src := Format(p)
		again, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: formatted source does not parse: %v\n%s", p.Name, err, src)
		}
		// Round trip preserves attestation identity — the digest.
		if again.Digest() != p.Digest() {
			t.Fatalf("%s: digest drift through format/parse:\n%s\nvs\n%s",
				p.Name, p.Canonical(), again.Canonical())
		}
	}
}

func TestFormatMentionsEverything(t *testing.T) {
	src := Format(NewMonitor("m"))
	for _, want := range []string{"program m", "header eth", "parser {", "register flow_count[4096]",
		"action fwd(port)", "table flow_stats", "ingress {", "egress {"} {
		if !strings.Contains(src, want) {
			t.Errorf("format missing %q:\n%s", want, src)
		}
	}
}

// A program name containing dots (firewall_v5.p4) must survive the lexer.
func TestDottedProgramNames(t *testing.T) {
	prog, err := ParseProgram("program firewall_v5.p4\nheader h { f:8 }\nparser { state s { extract h } }\ningress { }")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "firewall_v5.p4" {
		t.Fatalf("name %q", prog.Name)
	}
}

func TestParseGotoAndSelectDefaults(t *testing.T) {
	src := `program p
header h { f:8 }
parser {
  state start { extract h goto mid }
  state mid { select h.f { 1 -> done default -> reject } }
  state done { }
}
ingress { }`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Parser[0].Default != "mid" {
		t.Fatalf("goto: %+v", prog.Parser[0])
	}
	if prog.Parser[1].Default != StateReject || prog.Parser[1].Transitions[0].Next != "done" {
		t.Fatalf("select: %+v", prog.Parser[1])
	}
	if prog.Parser[2].Default != StateAccept {
		t.Fatalf("empty state: %+v", prog.Parser[2])
	}
	// Parser-level error branches.
	for _, bad := range []string{
		`program p parser { state s { select } } ingress { }`,
		`program p parser { state s { select f { x } } } ingress { }`,
		`program p parser { state s { select f { 1 } } } ingress { }`,
		`program p parser { state s { select f { default } } } ingress { }`,
		`program p action a() { count r } ingress { }`,
		`program p action a() { regread x = r[0 } ingress { }`,
		`program p action a() { regwrite r[0] 5 } ingress { }`,
	} {
		if _, err := ParseProgram(bad); err == nil {
			t.Errorf("%.50q parsed", bad)
		}
	}
}

// FuzzParseProgram feeds arbitrary source to the P4-lite parser. It must
// never panic, and a program it accepts must format as source that
// parses again, formats the same and keeps its digest. The seed corpus
// in testdata/fuzz/FuzzParseProgram also runs under plain go test.
func FuzzParseProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src)
		if err != nil {
			return
		}
		formatted := Format(p)
		again, err := ParseProgram(formatted)
		if err != nil {
			t.Fatalf("formatted source does not parse: %v\n%s", err, formatted)
		}
		if reformatted := Format(again); reformatted != formatted {
			t.Fatalf("format is not a fixed point:\n%s\nreformats as\n%s", formatted, reformatted)
		}
		if again.Digest() != p.Digest() {
			t.Fatalf("digest drift through format/parse:\n%s", formatted)
		}
	})
}
