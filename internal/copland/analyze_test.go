package copland

import (
	"strings"
	"testing"
)

// These tests reproduce the paper's §4.2 narrative: expression (1), with
// parallel composition, is vulnerable to the bmon repair attack; the
// sequenced expression (2) protects bmon's use.

func analyzeBody(t *testing.T, src string) *Report {
	t.Helper()
	req, err := ParseRequest(src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(req.Body, AnalyzeOptions{
		TrustedMeasurers: map[string]bool{"av": true},
		RootPlace:        req.RelyingParty,
	})
}

func findingFor(r *Report, agent string) (Finding, bool) {
	for _, f := range r.Findings {
		if f.Agent == agent {
			return f, true
		}
	}
	return Finding{}, false
}

// guarded wraps a `*bank: ...` request's body in a guard. A guard decides
// whether a phrase runs, not the order of its events, so it must leave
// every finding as it was.
func guarded(src string) string { return strings.Replace(src, ": ", ": Kbank |> ", 1) }

func TestAnalyzeExpr1Vulnerable(t *testing.T) {
	for _, src := range []string{expr1, guarded(expr1)} {
		rep := analyzeBody(t, src)
		f, ok := findingFor(rep, "bmon")
		if !ok {
			t.Fatalf("%s: no finding for bmon: %v", src, rep.Findings)
		}
		if f.Status != StatusVulnerable {
			t.Fatalf("%s: expression (1) should be vulnerable, got %v", src, f)
		}
		if !rep.Vulnerable() {
			t.Fatalf("%s: report not flagged vulnerable", src)
		}
	}
}

func TestAnalyzeExpr2Protected(t *testing.T) {
	for _, src := range []string{expr2, guarded(expr2)} {
		rep := analyzeBody(t, src)
		f, ok := findingFor(rep, "bmon")
		if !ok {
			t.Fatalf("%s: no finding for bmon: %v", src, rep.Findings)
		}
		if f.Status != StatusProtected {
			t.Fatalf("%s: expression (2) should be protected, got %v", src, f)
		}
		if rep.Vulnerable() {
			t.Fatalf("%s: report flagged vulnerable: %v", src, rep.Findings)
		}
	}
}

func TestAnalyzeUnmeasured(t *testing.T) {
	// exts is measured, bmon never is.
	rep := analyzeBody(t, `*bank: @us [bmon us exts -> !]`)
	f, ok := findingFor(rep, "bmon")
	if !ok || f.Status != StatusUnmeasured {
		t.Fatalf("finding: %v ok=%v", f, ok)
	}
}

func TestAnalyzeUseBeforeMeasurementVulnerable(t *testing.T) {
	// bmon measures first, av checks it afterwards — too late.
	rep := analyzeBody(t, `*bank: @us [bmon us exts] -<- @ks [av us bmon]`)
	f, _ := findingFor(rep, "bmon")
	if f.Status != StatusVulnerable {
		t.Fatalf("late measurement should be vulnerable, got %v", f)
	}
}

func TestAnalyzeArrowOrdersEvents(t *testing.T) {
	// The -> operator also sequences: measurement before use is safe.
	rep := analyzeBody(t, `*bank: @us [av us bmon -> bmon us exts]`)
	f, _ := findingFor(rep, "bmon")
	if f.Status != StatusProtected {
		t.Fatalf("-> ordering ignored: %v", f)
	}
}

func TestAnalyzePlaceMismatch(t *testing.T) {
	// av measures bmon at place "other"; the bmon running at us is a
	// different agent instance and stays unmeasured.
	rep := analyzeBody(t, `*bank: @ks [av other bmon] -<- @us [bmon us exts]`)
	f, _ := findingFor(rep, "bmon")
	if f.Status != StatusUnmeasured {
		t.Fatalf("cross-place measurement credited: %v", f)
	}
}

func TestAnalyzeWildcardPlaceMeasurement(t *testing.T) {
	// A measurement without a target place protects the agent wherever
	// it runs.
	req, err := Parse(`av bmon -> @us [bmon us exts]`)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(req, AnalyzeOptions{TrustedMeasurers: map[string]bool{"av": true}})
	f, _ := findingFor(rep, "bmon")
	if f.Status != StatusProtected {
		t.Fatalf("wildcard measurement not credited: %v", f)
	}
}

func TestAnalyzeTrustedMeasurerSkipped(t *testing.T) {
	rep := analyzeBody(t, expr2)
	if _, ok := findingFor(rep, "av"); ok {
		t.Fatal("trusted measurer av reported")
	}
}

func TestAnalyzeTransitiveOrdering(t *testing.T) {
	// a measures bmon, then x runs, then bmon is used: ordering must be
	// transitive through the chain of -<- operators.
	rep := analyzeBody(t, `*bank: (@ks [av us bmon] -<- @ks [x ks y]) -<- @us [bmon us exts]`)
	f, _ := findingFor(rep, "bmon")
	if f.Status != StatusProtected {
		t.Fatalf("transitive ordering lost: %v", f)
	}
}

func TestAnalyzeSubtermOrdering(t *testing.T) {
	// Events inside an ASP subterm happen before the applying ASP.
	term, err := Parse(`bmon(av us bmon) us exts`)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(term, AnalyzeOptions{TrustedMeasurers: map[string]bool{"av": true}, RootPlace: "us"})
	f, _ := findingFor(rep, "bmon")
	if f.Status != StatusProtected {
		t.Fatalf("subterm ordering lost: %v", f)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusProtected:  "protected",
		StatusVulnerable: "vulnerable",
		StatusUnmeasured: "unmeasured",
		Status(9):        "status(9)",
	} {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Agent: "bmon", Place: "us", Target: "exts", Status: StatusVulnerable}
	if f.String() != "bmon@us measuring exts: vulnerable" {
		t.Fatalf("finding string: %q", f.String())
	}
}
