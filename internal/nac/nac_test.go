package nac

import (
	"errors"
	"strings"
	"testing"

	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/pera"
)

func TestParseAP1(t *testing.T) {
	pol, err := copland.ParsePolicy(AP1)
	if err != nil {
		t.Fatal(err)
	}
	if pol.RelyingParty != "bank" {
		t.Fatalf("rp: %q", pol.RelyingParty)
	}
	if len(pol.Params) != 2 || pol.Params[0] != "n" || pol.Params[1] != "X" {
		t.Fatalf("params: %v", pol.Params)
	}
	if len(pol.Vars) != 2 || pol.Vars[0] != "hop" || pol.Vars[1] != "client" {
		t.Fatalf("vars: %v", pol.Vars)
	}
	if len(pol.Segments) != 2 {
		t.Fatalf("segments: %d", len(pol.Segments))
	}
	// First segment: BSeq(@hop[...], @Appraiser[...]).
	seq, ok := pol.Segments[0].(*copland.BSeq)
	if !ok {
		t.Fatalf("segment 0: %T", pol.Segments[0])
	}
	hop, ok := seq.L.(*copland.At)
	if !ok || hop.Place != "hop" {
		t.Fatalf("hop atom: %v", seq.L)
	}
	g, ok := hop.Body.(*copland.Guard)
	if !ok || g.Test != "Khop" {
		t.Fatalf("guard: %v", hop.Body)
	}
	// Second segment: @client with Kclient guard over host Copland.
	client, ok := pol.Segments[1].(*copland.At)
	if !ok || client.Place != "client" {
		t.Fatalf("client atom: %v", pol.Segments[1])
	}
	cg, ok := client.Body.(*copland.Guard)
	if !ok || cg.Test != "Kclient" {
		t.Fatalf("client guard: %v", client.Body)
	}
}

func TestParseAP2AndAP3(t *testing.T) {
	p2, err := copland.ParsePolicy(AP2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.RelyingParty != "scanner" || len(p2.Segments) != 1 || len(p2.Vars) != 0 {
		t.Fatalf("ap2: %+v", p2)
	}
	p3, err := copland.ParsePolicy(AP3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p3.Vars) != 5 || len(p3.Segments) != 2 {
		t.Fatalf("ap3: vars=%v segments=%d", p3.Vars, len(p3.Segments))
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, src := range []string{AP1, AP2, AP3} {
		pol, err := copland.ParsePolicy(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		again, err := copland.ParsePolicy(pol.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", pol.String(), err)
		}
		if pol.String() != again.String() {
			t.Fatalf("round trip:\n1: %s\n2: %s", pol, again)
		}
	}
}

// --- Compilation ---

func ap1Registry() TestRegistry {
	keyed := map[string]bool{"sw1": true, "sw2": true, "sw3": true, "client": true}
	return TestRegistry{
		"Khop":    {PlacePred: func(p string) bool { return keyed[p] }},
		"Kclient": {PlacePred: func(p string) bool { return keyed[p] }},
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `*`, `*x`, `*x:`, `*x: @p [`, `*x: forall : a`, `K |>`,
		`*x: a *=>`, `*x<: a`, `$`, `*x: forall p q: a`,
	}
	for _, src := range bad {
		if _, err := copland.ParsePolicy(src); err == nil {
			t.Errorf("%q parsed", src)
		}
	}
	if _, err := copland.Parse(`@p [a] trailing junk ~`); err == nil {
		t.Error("trailing junk parsed")
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := copland.ParsePolicy("*x:\n$")
	var se *copland.SyntaxError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "2:1") {
		t.Fatalf("err: %v", err)
	}
}

func ap1Path() []PathHop {
	return []PathHop{
		{Name: "bank", CanSign: true},
		{Name: "sw1", Attesting: true, CanSign: true},
		{Name: "sw2", Attesting: true, CanSign: true},
		{Name: "sw3", Attesting: true, CanSign: true},
		{Name: "client", CanSign: true},
	}
}

func TestCompileAP1(t *testing.T) {
	pol, err := copland.ParsePolicy(AP1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pol, ap1Path(), ap1Registry(), Options{
		Nonce:      []byte("n-ap1"),
		PolicyID:   1,
		Properties: map[string][]evidence.Detail{"X": {evidence.DetailProgram, evidence.DetailTables}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One replicated obligation for ∀hop.
	if len(c.Policy.Obls) != 1 {
		t.Fatalf("obligations: %+v", c.Policy.Obls)
	}
	o := c.Policy.Obls[0]
	if o.Place != "" {
		t.Fatalf("hop obligation pinned to %q", o.Place)
	}
	if len(o.Claims) != 2 || o.Claims[0] != evidence.DetailProgram {
		t.Fatalf("claims: %v", o.Claims)
	}
	if !o.SignEvidence || o.HashEvidence {
		t.Fatalf("flags: %+v", o)
	}
	if o.Appraiser != "Appraiser" {
		t.Fatalf("appraiser: %q", o.Appraiser)
	}
	// The client host term is the §4.2 bank phrase in plain Copland.
	if len(c.HostTerms) != 1 || c.HostTerms[0].Place != "client" {
		t.Fatalf("host terms: %+v", c.HostTerms)
	}
	if !strings.Contains(c.HostTerms[0].Term.String(), "av us bmon") {
		t.Fatalf("client term: %s", c.HostTerms[0].Term)
	}
	if c.Bindings["hop"] != "*" || c.Bindings["client"] != "client" {
		t.Fatalf("bindings: %v", c.Bindings)
	}
	// The compiled policy survives the wire.
	dec, err := pera.DecodePolicy(c.Policy.Encode())
	if err != nil || len(dec.Obls) != 1 {
		t.Fatalf("wire: %v %v", dec, err)
	}
}

func TestCompileAP1GuardFailsEarly(t *testing.T) {
	pol, _ := copland.ParsePolicy(AP1)
	// sw2 has no key relationship: Khop must fail the binding (the
	// "fail early" design point) — no span containing sw2 satisfies the
	// guard, and sw2 sits mid-path so it cannot be skipped.
	reg := TestRegistry{
		"Khop":    {PlacePred: func(p string) bool { return p != "sw2" }},
		"Kclient": {PlacePred: func(string) bool { return true }},
	}
	_, err := Compile(pol, ap1Path(), reg, Options{
		Properties: map[string][]evidence.Detail{"X": {evidence.DetailProgram}},
	})
	if !errors.Is(err, ErrNoBinding) {
		t.Fatalf("err: %v", err)
	}
}

func TestCompileAP1UnknownTest(t *testing.T) {
	pol, _ := copland.ParsePolicy(AP1)
	_, err := Compile(pol, ap1Path(), TestRegistry{}, Options{
		Properties: map[string][]evidence.Detail{"X": {evidence.DetailProgram}},
	})
	if !errors.Is(err, ErrNoBinding) {
		// Unknown tests make every guarded candidate fail, surfacing as
		// a binding failure.
		t.Fatalf("err: %v", err)
	}
}

func TestCompileAP2(t *testing.T) {
	pol, err := copland.ParsePolicy(AP2)
	if err != nil {
		t.Fatal(err)
	}
	reg := TestRegistry{
		"P": {PacketGuards: []pera.Guard{{Field: "tp.dport", Value: 4444}}},
	}
	path := []PathHop{{Name: "scanner", Attesting: true, CanSign: true}}
	c, err := Compile(pol, path, reg, Options{
		PolicyID:   2,
		Properties: map[string][]evidence.Detail{"P": {evidence.DetailPackets}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Policy.Obls) != 1 {
		t.Fatalf("obligations: %+v", c.Policy.Obls)
	}
	o := c.Policy.Obls[0]
	if o.Place != "scanner" || !o.SignEvidence {
		t.Fatalf("obligation: %+v", o)
	}
	if len(o.Guards) != 1 || o.Guards[0].Field != "tp.dport" || o.Guards[0].Value != 4444 {
		t.Fatalf("packet guards: %+v", o.Guards)
	}
	if len(o.Claims) != 1 || o.Claims[0] != evidence.DetailPackets {
		t.Fatalf("claims: %v", o.Claims)
	}
}

func TestCompileAP3(t *testing.T) {
	pol, err := copland.ParsePolicy(AP3)
	if err != nil {
		t.Fatal(err)
	}
	reg := TestRegistry{
		"Peer1": {PlacePred: func(p string) bool { return p == "alice" }},
		"Peer2": {PlacePred: func(p string) bool { return p == "bob" }},
		"Q":     {PlacePred: func(p string) bool { return p == "swR" }},
	}
	path := []PathHop{
		{Name: "alice", CanSign: true},
		{Name: "swF1", Attesting: true, CanSign: true},
		{Name: "swF2", Attesting: true, CanSign: true},
		{Name: "dumb1"}, // non-RA gap (the *=> region)
		{Name: "dumb2"}, // more gap
		{Name: "swR", Attesting: true, CanSign: true},
		{Name: "bob", CanSign: true},
	}
	c, err := Compile(pol, path, reg, Options{
		PolicyID: 3,
		Properties: map[string][]evidence.Detail{
			"F1": {evidence.DetailProgram},
			"F2": {evidence.DetailProgram, evidence.DetailTables},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Bindings["p"] != "swF1" || c.Bindings["q"] != "swF2" || c.Bindings["r"] != "swR" {
		t.Fatalf("bindings: %v", c.Bindings)
	}
	if c.Bindings["peer1"] != "alice" || c.Bindings["peer2"] != "bob" {
		t.Fatalf("peer bindings: %v", c.Bindings)
	}
	// Obligations: p (attest F1), q (attest F2), r (bare sign).
	if len(c.Policy.Obls) != 3 {
		t.Fatalf("obligations: %+v", c.Policy.Obls)
	}
	if c.Policy.Obls[0].Place != "swF1" || len(c.Policy.Obls[0].Claims) != 1 {
		t.Fatalf("p obligation: %+v", c.Policy.Obls[0])
	}
	if c.Policy.Obls[1].Place != "swF2" || len(c.Policy.Obls[1].Claims) != 2 {
		t.Fatalf("q obligation: %+v", c.Policy.Obls[1])
	}
	if c.Policy.Obls[2].Place != "swR" || len(c.Policy.Obls[2].Claims) != 0 || !c.Policy.Obls[2].SignEvidence {
		t.Fatalf("r obligation: %+v", c.Policy.Obls[2])
	}
	// Host terms: peer1 and peer2 sign.
	if len(c.HostTerms) != 2 || c.HostTerms[0].Place != "alice" || c.HostTerms[1].Place != "bob" {
		t.Fatalf("host terms: %+v", c.HostTerms)
	}
}

func TestCompileAP3RequiresOrder(t *testing.T) {
	pol, _ := copland.ParsePolicy(AP3)
	reg := TestRegistry{
		"Peer1": {PlacePred: func(p string) bool { return p == "alice" }},
		"Peer2": {PlacePred: func(p string) bool { return p == "bob" }},
		"Q":     {PlacePred: func(p string) bool { return p == "swR" }},
	}
	// Path with swR *before* the attested functions: cannot bind.
	path := []PathHop{
		{Name: "alice", CanSign: true},
		{Name: "swR", Attesting: true, CanSign: true},
		{Name: "bob", CanSign: true},
	}
	_, err := Compile(pol, path, reg, Options{
		Properties: map[string][]evidence.Detail{
			"F1": {evidence.DetailProgram}, "F2": {evidence.DetailProgram},
		},
	})
	if !errors.Is(err, ErrNoBinding) {
		t.Fatalf("err: %v", err)
	}
}

func TestCompileConcretePlaceMustExist(t *testing.T) {
	pol, err := copland.ParsePolicy(`*rp: @SwitchX [attest(Program) -> !] -<+ @Appraiser [appraise -> store]`)
	if err != nil {
		t.Fatal(err)
	}
	path := []PathHop{{Name: "other", Attesting: true, CanSign: true}}
	if _, err := Compile(pol, path, TestRegistry{}, Options{}); !errors.Is(err, ErrNoBinding) {
		t.Fatalf("err: %v", err)
	}
	path = []PathHop{{Name: "SwitchX", Attesting: true, CanSign: true}}
	c, err := Compile(pol, path, TestRegistry{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Policy.Obls) != 1 || c.Policy.Obls[0].Place != "SwitchX" {
		t.Fatalf("obligation: %+v", c.Policy.Obls)
	}
}

func TestCompileUnknownProperty(t *testing.T) {
	pol, _ := copland.ParsePolicy(`*rp: @sw [attest(Mystery) -> !] -<+ @Appraiser [appraise -> store]`)
	path := []PathHop{{Name: "sw", Attesting: true, CanSign: true}}
	if _, err := Compile(pol, path, TestRegistry{}, Options{}); err == nil {
		t.Fatal("unknown property compiled")
	}
}

func TestCompileBuiltinProperties(t *testing.T) {
	pol, _ := copland.ParsePolicy(`*rp: @sw [attest(Hardware -~- Program) -> # -> !] -<+ @Appraiser [appraise -> store]`)
	path := []PathHop{{Name: "sw", Attesting: true, CanSign: true}}
	c, err := Compile(pol, path, TestRegistry{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := c.Policy.Obls[0]
	if len(o.Claims) != 2 || !o.HashEvidence || !o.SignEvidence {
		t.Fatalf("obligation: %+v", o)
	}
}

func TestPlacesAndWalk(t *testing.T) {
	pol, _ := copland.ParsePolicy(AP3)
	ps := copland.Places(pol.Segments[0])
	if len(ps) != 4 || ps[0] != "peer1" || ps[3] != "Appraiser" {
		t.Fatalf("places: %v", ps)
	}
	count := 0
	copland.Walk(pol.Segments[0], func(copland.Term) bool { count++; return false })
	if count != 1 {
		t.Fatal("walk stop")
	}
}
