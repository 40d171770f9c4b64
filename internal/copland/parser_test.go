package copland

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// The paper's expressions in ASCII syntax. Expression numbers refer to
// §4.2 and §5 of the paper.
const (
	// (1): parallel composition — vulnerable to the repair attack.
	expr1 = `*bank: @ks [av us bmon] +~- @us [bmon us exts]`
	// (2): sequenced and signed — the hardened version.
	expr2 = `*bank: @ks [av us bmon -> !] -<- @us [bmon us exts -> !]`
	// (3): out-of-band PERA variant (RP1 phrase).
	expr3 = `*RP1, n: @Switch [attest(Hardware -~- Program) -> # -> !] +>+ @Appraiser [appraise -> certify(n) -> ! -> store(n)]`
	// (4): in-band PERA variant.
	expr4 = `*RP1: @Switch [attest(Hardware -~- Program) -> # -> !] -> @RP2 [@Appraiser [appraise -> certify -> !]]`
)

func TestParseRequestBankParallel(t *testing.T) {
	req, err := ParseRequest(expr1)
	if err != nil {
		t.Fatal(err)
	}
	if req.RelyingParty != "bank" || len(req.Params) != 0 {
		t.Fatalf("request header: %+v", req)
	}
	par, ok := req.Body.(*BPar)
	if !ok {
		t.Fatalf("body is %T, want *BPar", req.Body)
	}
	if !bool(par.LFlag) || bool(par.RFlag) {
		t.Fatalf("flags: %v~%v, want +~-", par.LFlag, par.RFlag)
	}
	at, ok := par.L.(*At)
	if !ok || at.Place != "ks" {
		t.Fatalf("left arm: %v", par.L)
	}
	asp, ok := at.Body.(*ASP)
	if !ok || asp.Name != "av" || asp.TargetPlace != "us" || asp.Target != "bmon" {
		t.Fatalf("measurement: %v", at.Body)
	}
}

func TestParseRequestBankSequenced(t *testing.T) {
	req, err := ParseRequest(expr2)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := req.Body.(*BSeq)
	if !ok {
		t.Fatalf("body is %T, want *BSeq", req.Body)
	}
	at := seq.L.(*At)
	ls, ok := at.Body.(*LSeq)
	if !ok {
		t.Fatalf("arm body is %T, want *LSeq", at.Body)
	}
	if sig, ok := ls.R.(*ASP); !ok || sig.Name != SigName {
		t.Fatalf("expected trailing !: %v", ls.R)
	}
}

func TestParseExpr3OutOfBand(t *testing.T) {
	req, err := ParseRequest(expr3)
	if err != nil {
		t.Fatal(err)
	}
	if req.RelyingParty != "RP1" || len(req.Params) != 1 || req.Params[0] != "n" {
		t.Fatalf("header: %+v", req)
	}
	seq, ok := req.Body.(*BSeq)
	if !ok {
		t.Fatalf("body is %T, want *BSeq (the +>+ operator)", req.Body)
	}
	_ = seq
}

func TestParseExpr4InBand(t *testing.T) {
	req, err := ParseRequest(expr4)
	if err != nil {
		t.Fatal(err)
	}
	ls, ok := req.Body.(*LSeq)
	if !ok {
		t.Fatalf("body is %T, want *LSeq", req.Body)
	}
	// Right side: @RP2 [@Appraiser [...]]
	rp2, ok := ls.R.(*At)
	if !ok || rp2.Place != "RP2" {
		t.Fatalf("right: %v", ls.R)
	}
	app, ok := rp2.Body.(*At)
	if !ok || app.Place != "Appraiser" {
		t.Fatalf("nested at: %v", rp2.Body)
	}
}

func TestParseAttestSubTerm(t *testing.T) {
	term, err := Parse(`attest(Hardware -~- Program) -> #`)
	if err != nil {
		t.Fatal(err)
	}
	ls := term.(*LSeq)
	attest, ok := ls.L.(*ASP)
	if !ok || attest.Name != "attest" || attest.SubTerm == nil {
		t.Fatalf("attest: %v", ls.L)
	}
	if _, ok := attest.SubTerm.(*BPar); !ok {
		t.Fatalf("subterm is %T, want *BPar", attest.SubTerm)
	}
}

func TestParseArgsVsSubterm(t *testing.T) {
	// Simple args.
	a := mustParseASP(t, `certify(n)`)
	if len(a.Args) != 1 || a.Args[0] != "n" || a.SubTerm != nil {
		t.Fatalf("certify: %+v", a)
	}
	// Multiple args.
	a = mustParseASP(t, `check(n, X, Y)`)
	if len(a.Args) != 3 || a.Args[2] != "Y" {
		t.Fatalf("check: %+v", a)
	}
	// Empty parens.
	a = mustParseASP(t, `probe()`)
	if len(a.Args) != 0 || a.SubTerm != nil {
		t.Fatalf("probe: %+v", a)
	}
	// Args then target: attest(n) X.
	a = mustParseASP(t, `attest(n) X`)
	if len(a.Args) != 1 || a.Target != "X" || a.TargetPlace != "" {
		t.Fatalf("attest(n) X: %+v", a)
	}
}

func mustParseASP(t *testing.T, src string) *ASP {
	t.Helper()
	term, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := term.(*ASP)
	if !ok {
		t.Fatalf("%q parsed to %T", src, term)
	}
	return a
}

func TestParseBuiltins(t *testing.T) {
	for src, want := range map[string]string{"!": SigName, "#": HashName, "_": CopyName} {
		a := mustParseASP(t, src)
		if a.Name != want {
			t.Errorf("%q -> %q", src, a.Name)
		}
	}
}

func TestParsePrecedenceArrowOverBranch(t *testing.T) {
	term, err := Parse(`a -> b -<- c -> d`)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := term.(*BSeq)
	if !ok {
		t.Fatalf("top is %T, want *BSeq", term)
	}
	if _, ok := seq.L.(*LSeq); !ok {
		t.Fatalf("left is %T, want *LSeq", seq.L)
	}
	if _, ok := seq.R.(*LSeq); !ok {
		t.Fatalf("right is %T, want *LSeq", seq.R)
	}
}

func TestParseBranchLeftAssoc(t *testing.T) {
	term, err := Parse(`a -<- b -~- c`)
	if err != nil {
		t.Fatal(err)
	}
	par, ok := term.(*BPar)
	if !ok {
		t.Fatalf("top is %T, want *BPar", term)
	}
	if _, ok := par.L.(*BSeq); !ok {
		t.Fatalf("left is %T, want *BSeq", par.L)
	}
}

func TestParseParensOverride(t *testing.T) {
	term, err := Parse(`a -<- (b -~- c)`)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := term.(*BSeq)
	if !ok {
		t.Fatalf("top is %T, want *BSeq", term)
	}
	if _, ok := seq.R.(*BPar); !ok {
		t.Fatalf("right is %T, want *BPar", seq.R)
	}
}

func TestParseAllFlagCombos(t *testing.T) {
	for _, src := range []string{`a -<- b`, `a +<- b`, `a -<+ b`, `a +<+ b`, `a -~- b`, `a +~+ b`, `a +>+ b`} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	// '>' parses as sequential branching, like '<' (paper expression 3).
	term, err := Parse(`a +>+ b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := term.(*BSeq); !ok {
		t.Fatalf("+>+ parsed to %T, want *BSeq", term)
	}
}

func TestParseComments(t *testing.T) {
	term, err := Parse("a -> // pipe to signer\n !")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := term.(*LSeq); !ok {
		t.Fatalf("got %T", term)
	}
}

// A guard's body is a full term: it extends as far right as a term does,
// also to the right of '->'. String parenthesizes what the parser grouped.
func TestParseGuard(t *testing.T) {
	for src, want := range map[string]string{
		`K |> @p [attest(Hardware) -> !]`: `K |> @p [attest(Hardware) -> !]`,
		`K |> a -> b`:                     `K |> (a -> b)`,
		`K |> a -<- b -~- c`:              `K |> ((a -<- b) -~- c)`,
		`a -> K |> b -> c`:                `a -> (K |> (b -> c))`,
		`(K |> a) -> b`:                   `(K |> a) -> b`,
		`f(K |> a) -> b`:                  `f(K |> a) -> b`,
	} {
		term, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := term.String(); got != want {
			t.Errorf("%q parsed as %q, want %q", src, got, want)
		}
	}
	term, _ := Parse(`K |> a`)
	if g, ok := term.(*Guard); !ok || g.Test != "K" || g.Body.String() != "a" {
		t.Fatalf("guard: %#v", term)
	}
}

func TestParsePolicy(t *testing.T) {
	pol, err := ParsePolicy(`*rp<n, X>: forall hop, c: (@hop [K |> attest(n) X -> !] -<+ @Appraiser [appraise]) *=> @c [!]`)
	if err != nil {
		t.Fatal(err)
	}
	if pol.RelyingParty != "rp" || strings.Join(pol.Params, ",") != "n,X" || strings.Join(pol.Vars, ",") != "hop,c" {
		t.Fatalf("header: %+v", pol)
	}
	if len(pol.Segments) != 2 {
		t.Fatalf("segments: %v", pol.Segments)
	}
	if _, ok := pol.Segments[0].(*BSeq); !ok {
		t.Fatalf("segment 0 is %T, want *BSeq", pol.Segments[0])
	}
	if at, ok := pol.Segments[1].(*At); !ok || at.Place != "c" {
		t.Fatalf("segment 1: %v", pol.Segments[1])
	}
	// The header is ParseRequest's, comma-style parameters included.
	pol, err = ParsePolicy(`*rp, n: @p [!]`)
	if err != nil || len(pol.Params) != 1 || len(pol.Vars) != 0 || len(pol.Segments) != 1 {
		t.Fatalf("comma params: %+v, %v", pol, err)
	}
	// forall binds only before a name and then ',' or ':'; anywhere else
	// it is an ordinary name, so each rendering re-parses to itself.
	for src, want := range map[string]string{
		`*x: (forall)`:           `*x: forall`,
		`*x: (forall) *=> a`:     `*x: forall *=> a`,
		`*x: forall p: forall q`: `*x: forall p: forall q`,
	} {
		pol, err := ParsePolicy(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if pol.String() != want {
			t.Fatalf("%q renders as %q, want %q", src, pol, want)
		}
		again, err := ParsePolicy(want)
		if err != nil || again.String() != want {
			t.Fatalf("%q does not re-parse to itself: %v, %v", want, again, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `@`, `@p`, `@p [`, `@p [a`, `(a`, `a ->`, `a -< b`, `a -<`,
		`a -<* b`, `*: a`, `*rp a`, `*rp<: a`, `*rp<n: a`, `f(`, `f(a,`,
		`a b c d`, `$`, `a -> )`, `@p [a] trailing junk ~`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			if _, err2 := ParseRequest(src); err2 == nil {
				t.Errorf("%q parsed", src)
			}
		}
	}
	badPolicies := []string{
		``, `*`, `*x`, `*x:`, `*x: @p [`, `*x: forall : a`, `K |>`,
		`*x: a *=>`, `*x<: a`, `$`, `*x: forall p q: a`, `*x: forall p, : a`,
	}
	for _, src := range badPolicies {
		if _, err := ParsePolicy(src); err == nil {
			t.Errorf("policy %q parsed", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("a ->\n$")
	_, perr := ParsePolicy("*x:\n$")
	for _, err := range []error{err, perr} {
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Fatalf("error type %T", err)
		}
		if !strings.Contains(se.Error(), "2:1") {
			t.Fatalf("error lacks position: %v", se)
		}
	}
}

func TestParseRequestCommaParams(t *testing.T) {
	req, err := ParseRequest(`*RP2, n, m: @Appraiser [retrieve(n)]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Params) != 2 || req.Params[0] != "n" || req.Params[1] != "m" {
		t.Fatalf("params: %v", req.Params)
	}
}

func TestParseRequestAngleParams(t *testing.T) {
	req, err := ParseRequest(`*bank<n, X>: attest(n) X -> !`)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Params) != 2 || req.Params[1] != "X" {
		t.Fatalf("params: %v", req.Params)
	}
}

// Round trip: String() of a parsed term re-parses to an equal tree.
func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		expr1, expr2, expr4,
		`*RP2, n: @Appraiser [retrieve(n)]`,
		`*x: a -> (b -<- c) -> d`,
		`*x: attest(Hardware -~- Program) -> # -> !`,
		`*x: _ -> # -> !`,
		`*x: check(n, X) p t`,
		`*x: K |> a -> b`,
		`*x: (K |> a) -> b -~- (L |> @p [m q t])`,
		`*x: f(K |> a)`,
	}
	for _, src := range srcs {
		req, err := ParseRequest(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		again, err := ParseRequest(req.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", req.String(), err)
		}
		if req.String() != again.String() {
			t.Fatalf("round trip:\n  1: %s\n  2: %s", req, again)
		}
	}
}

func TestPlaces(t *testing.T) {
	for src, want := range map[string][]string{
		expr2: {"ks", "us"},
		// Walk, and so Places, goes through guards.
		`*x: K |> @p [a q t] -> L |> @r [!]`: {"p", "q", "r"},
	} {
		req, err := ParseRequest(src)
		if err != nil {
			t.Fatal(err)
		}
		got := Places(req.Body)
		if len(got) != len(want) {
			t.Fatalf("places: %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("places: %v, want %v", got, want)
			}
		}
	}
}

func TestWalkStopsDescent(t *testing.T) {
	term, _ := Parse(`@p [a -> b]`)
	count := 0
	Walk(term, func(Term) bool { count++; return false })
	if count != 1 {
		t.Fatalf("walk visited %d nodes after stop", count)
	}
}

// Property: generated random terms survive String -> Parse -> String.
func TestPropertyTermRoundTrip(t *testing.T) {
	names := []string{"a", "bmon", "av", "attest", "store"}
	places := []string{"p", "q", "ks", "us"}
	var build func(r uint64, depth int) Term
	build = func(r uint64, depth int) Term {
		if depth <= 0 {
			switch r % 4 {
			case 0:
				return Sig()
			case 1:
				return Hsh()
			case 2:
				return &ASP{Name: names[r%5]}
			default:
				return Measure(names[r%5], places[(r>>3)%4], names[(r>>6)%5])
			}
		}
		l := build(r/7, depth-1)
		rr := build(r/13, depth-1)
		switch r % 7 {
		case 0:
			return &LSeq{L: l, R: rr}
		case 1:
			return &BSeq{LFlag: r&1 == 0, RFlag: r&2 == 0, L: l, R: rr}
		case 2:
			return &BPar{LFlag: r&1 == 0, RFlag: r&2 == 0, L: l, R: rr}
		case 3:
			return &At{Place: places[r%4], Body: l}
		case 4:
			return &Guard{Test: places[r%4], Body: l}
		case 5:
			return &ASP{Name: names[r%5], Args: []string{places[r%4], names[(r>>3)%5]}, Target: names[(r>>6)%5]}
		default:
			return &ASP{Name: names[r%5], SubTerm: l}
		}
	}
	f := func(r uint64, d uint8) bool {
		term := build(r, int(d%4))
		parsed, err := Parse(term.String())
		if err != nil {
			t.Logf("term %q failed: %v", term, err)
			return false
		}
		return parsed.String() == term.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParsePolicy feeds hostile input to the one policy front end.
// Nothing may panic, and whenever Parse, ParseRequest or ParsePolicy
// accepts an input, its String re-parses to the same String. The seed
// corpus in testdata/fuzz/FuzzParsePolicy also runs under plain go test.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		reparses(t, Parse, src)
		reparses(t, ParseRequest, src)
		reparses(t, ParsePolicy, src)
	})
}

// reparses checks that, if parse accepts src, the String of the result
// parses again to the same String.
func reparses[T fmt.Stringer](t *testing.T, parse func(string) (T, error), src string) {
	t.Helper()
	v, err := parse(src)
	if err != nil {
		return
	}
	s := v.String()
	again, err := parse(s)
	if err != nil {
		t.Fatalf("%q parses, but its String %q does not: %v", src, s, err)
	}
	if got := again.String(); got != s {
		t.Fatalf("%q: String %q re-parses as %q", src, s, got)
	}
}
