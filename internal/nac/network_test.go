package nac

import (
	"strings"
	"testing"

	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/pisa"
)

// PathFromNetwork + Compile over a live netsim topology: the end-to-end
// "relying party compiles a policy against the network it actually has"
// flow, without the usecases testbed.
func TestPathFromNetworkAndCompile(t *testing.T) {
	net := netsim.New()
	src := netsim.NewHost("src", 1)
	dst := netsim.NewHost("dst", 2)
	net.MustAdd(src)
	net.MustAdd(dst)

	sw, err := pera.New("swA", p4ir.NewForwarding("fwd_v1.p4"), pera.Config{})
	if err != nil {
		t.Fatal(err)
	}
	net.MustAdd(sw)
	plainInst, err := pisa.Load(p4ir.NewForwarding("plain"))
	if err != nil {
		t.Fatal(err)
	}
	net.MustAdd(netsim.NewSwitch("plainB", plainInst)) // non-attesting hop

	net.MustLink("src", netsim.HostPort, "swA", 1)
	net.MustLink("swA", 2, "plainB", 1)
	net.MustLink("plainB", 2, "dst", netsim.HostPort)

	hops := PathFromNetwork(net, "src", "dst")
	if len(hops) != 4 {
		t.Fatalf("hops: %v", hops)
	}
	if !hops[1].Attesting || !hops[1].CanSign || hops[1].Name != "swA" {
		t.Fatalf("pera hop: %+v", hops[1])
	}
	if hops[2].Attesting || hops[2].CanSign {
		t.Fatalf("plain hop: %+v", hops[2])
	}
	if !hops[0].CanSign || hops[0].Attesting {
		t.Fatalf("host hop: %+v", hops[0])
	}

	// AP1 binds over this path: the single attesting hop carries the
	// obligation; the non-attesting switch sits in the star's span.
	pol, err := copland.ParsePolicy(AP1)
	if err != nil {
		t.Fatal(err)
	}
	reg := TestRegistry{
		"Khop":    {PlacePred: func(string) bool { return true }},
		"Kclient": {PlacePred: func(p string) bool { return p == "dst" }},
	}
	c, err := Compile(pol, hops, reg, Options{
		Properties: map[string][]evidence.Detail{"X": {evidence.DetailProgram}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Bindings["client"] != "dst" {
		t.Fatalf("bindings: %v", c.Bindings)
	}
	// Unknown endpoints yield an empty path.
	if got := PathFromNetwork(net, "ghost", "dst"); got != nil {
		t.Fatalf("ghost path: %v", got)
	}
}

func TestTermStringsCoverAllNodes(t *testing.T) {
	terms := []copland.Term{
		&copland.BPar{LFlag: true, RFlag: false, L: &copland.ASP{Name: "a"}, R: &copland.ASP{Name: "b"}},
		&copland.BSeq{L: &copland.ASP{Name: "a"}, R: &copland.ASP{Name: "b"}},
		&copland.Guard{Test: "K", Body: &copland.ASP{Name: "!"}},
		&copland.LSeq{L: &copland.ASP{Name: "a", Args: []string{"x", "y"}}, R: &copland.ASP{Name: "m", TargetPlace: "p", Target: "t"}},
		&copland.At{Place: "p", Body: &copland.ASP{Name: "f", SubTerm: &copland.ASP{Name: "inner"}}},
	}
	for _, tm := range terms {
		s := tm.String()
		if s == "" {
			t.Errorf("empty string for %T", tm)
		}
		// Every rendering must re-parse.
		if _, err := copland.Parse(s); err != nil {
			t.Errorf("%q does not re-parse: %v", s, err)
		}
	}
}

func TestSubstPlacesCoversAllNodes(t *testing.T) {
	src := `K |> (@p [f(m q t -~- n) -<+ @q [x q y]])`
	term, err := copland.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := lower(term, map[string]string{"p": "SW1", "q": "SW2"}).String()
	for _, want := range []string{"SW1", "SW2"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
	if strings.Contains(s, "@p ") || strings.Contains(s, "@q ") {
		t.Errorf("unsubstituted places in %q", s)
	}
	// Lowering strips guards in the same pass, so the VM can run it.
	if strings.Contains(s, "|>") {
		t.Errorf("guard left in %q", s)
	}
}
