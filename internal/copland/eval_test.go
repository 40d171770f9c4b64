package copland

import (
	"errors"
	"strings"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rot"
)

// measureHandler returns a handler producing measurement evidence whose
// value is the digest of the target name — a stand-in for a real
// measurement agent.
func measureHandler() Handler {
	return func(c *Call) (*evidence.Evidence, error) {
		target := c.ASP.Target
		if target == "" && len(c.ASP.Args) > 0 {
			target = c.ASP.Args[0]
		}
		m := evidence.Measurement(c.ASP.Name, target, c.Place, evidence.DetailProgram,
			rot.Sum([]byte(target)), nil)
		if c.Input != nil && c.Input.Kind != evidence.KindEmpty {
			return evidence.Seq(c.Input, m), nil
		}
		return m, nil
	}
}

func testEnv(t *testing.T) (*Env, map[string]*rot.RoT) {
	t.Helper()
	env := NewEnv()
	rots := map[string]*rot.RoT{}
	for _, name := range []string{"bank", "ks", "us", "Switch", "Appraiser", "RP1", "RP2", "p"} {
		r := rot.NewDeterministic(name, []byte(name))
		rots[name] = r
		pl := NewPlace(name, r)
		pl.HandleDefault(measureHandler())
		env.AddPlace(pl)
	}
	return env, rots
}

func TestEvalASPProducesMeasurement(t *testing.T) {
	env, _ := testEnv(t)
	term, _ := Parse(`av us bmon`)
	res, err := ExecTerm(env, "ks", term, evidence.Empty(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := evidence.Measurements(res.Evidence)
	if len(ms) != 1 || ms[0].Measurer != "av" || ms[0].Target != "bmon" || ms[0].Place != "ks" {
		t.Fatalf("evidence: %v", res.Evidence)
	}
}

func TestEvalAtChangesPlace(t *testing.T) {
	env, _ := testEnv(t)
	term, _ := Parse(`@us [bmon us exts]`)
	res, err := ExecTerm(env, "bank", term, evidence.Empty(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := evidence.Measurements(res.Evidence)
	if len(ms) != 1 || ms[0].Place != "us" {
		t.Fatalf("measurement place: %v", ms)
	}
	if len(res.Trace) != 1 || res.Trace[0].Place != "us" {
		t.Fatalf("trace: %v", res.Trace)
	}
}

func TestEvalSignAndHash(t *testing.T) {
	env, rots := testEnv(t)
	term, _ := Parse(`av us bmon -> # -> !`)
	res, err := ExecTerm(env, "ks", term, evidence.Empty(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Top: sig(ks) over hash over (nothing visible — collapsed).
	if res.Evidence.Kind != evidence.KindSig || res.Evidence.Signer != "ks" {
		t.Fatalf("top: %v", res.Evidence)
	}
	if res.Evidence.Left.Kind != evidence.KindHash {
		t.Fatalf("inner: %v", res.Evidence.Left)
	}
	keys := evidence.KeyMap{"ks": rots["ks"].Public()}
	if _, err := evidence.VerifySignatures(res.Evidence, keys); err != nil {
		t.Fatalf("signature: %v", err)
	}
}

func TestEvalCopyIsIdentity(t *testing.T) {
	env, _ := testEnv(t)
	in := evidence.Nonce([]byte("keep"))
	res, err := ExecTerm(env, "bank", Cpy(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !evidence.Equal(in, res.Evidence) {
		t.Fatal("copy changed evidence")
	}
}

func TestEvalBranchFlags(t *testing.T) {
	env, _ := testEnv(t)
	in := evidence.Nonce([]byte("n0"))

	// Both minus: neither branch sees the input nonce.
	term, _ := Parse(`_ -<- _`)
	res, _ := ExecTerm(env, "bank", term, in, nil)
	if len(evidence.Nonces(res.Evidence)) != 0 {
		t.Fatalf("-<-: nonce leaked: %v", res.Evidence)
	}

	// Both plus: both branches see it.
	term, _ = Parse(`_ +<+ _`)
	res, _ = ExecTerm(env, "bank", term, in, nil)
	if len(evidence.Nonces(res.Evidence)) != 2 {
		t.Fatalf("+<+: %v", res.Evidence)
	}

	// Mixed: exactly one.
	term, _ = Parse(`_ +~- _`)
	res, _ = ExecTerm(env, "bank", term, in, nil)
	if len(evidence.Nonces(res.Evidence)) != 1 {
		t.Fatalf("+~-: %v", res.Evidence)
	}
	if res.Evidence.Kind != evidence.KindPar {
		t.Fatalf("~ did not produce par evidence: %v", res.Evidence)
	}
}

func TestEvalLSeqThreadsEvidence(t *testing.T) {
	env, _ := testEnv(t)
	term, _ := Parse(`av us bmon -> bmon us exts`)
	res, err := ExecTerm(env, "ks", term, evidence.Empty(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The second measurement handler wraps the first's output in a Seq.
	ms := evidence.Measurements(res.Evidence)
	if len(ms) != 2 {
		t.Fatalf("measurements: %v", res.Evidence)
	}
	if ms[0].Measurer != "av" || ms[1].Measurer != "bmon" {
		t.Fatalf("order: %v %v", ms[0], ms[1])
	}
}

func TestEvalSubTerm(t *testing.T) {
	env, _ := testEnv(t)
	term, _ := Parse(`attest(Hardware -~- Program)`)
	res, err := ExecTerm(env, "Switch", term, evidence.Empty(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// attest receives par(Hardware-measurement, Program-measurement) as
	// input; our handler wraps input in Seq.
	ms := evidence.Measurements(res.Evidence)
	if len(ms) != 3 {
		t.Fatalf("want 3 measurements (hw, prog, attest), got %d: %v", len(ms), res.Evidence)
	}
	if ms[2].Measurer != "attest" {
		t.Fatalf("final measurer: %v", ms[2])
	}
}

func TestExecRequestNonceBinding(t *testing.T) {
	env, _ := testEnv(t)
	req, err := ParseRequest(`*RP1, n: @Switch [_ -> !]`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(env, req, map[string][]byte{"n": []byte("fresh-nonce")})
	if err != nil {
		t.Fatal(err)
	}
	ns := evidence.Nonces(res.Evidence)
	if len(ns) != 1 || string(ns[0]) != "fresh-nonce" {
		t.Fatalf("nonce evidence: %v", res.Evidence)
	}
	// Without a binding, evaluation starts empty.
	res, err = Exec(env, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence.Nonces(res.Evidence)) != 0 {
		t.Fatal("unbound request carried a nonce")
	}
}

func TestCallArgResolution(t *testing.T) {
	env, _ := testEnv(t)
	var got []byte
	pl, _ := env.Place("p")
	pl.Handle("certify", func(c *Call) (*evidence.Evidence, error) {
		got = c.Arg(0)
		if c.Arg(5) != nil {
			t.Error("out-of-range arg not nil")
		}
		return c.Input, nil
	})
	term, _ := Parse(`certify(n)`)
	if _, err := ExecTerm(env, "p", term, evidence.Empty(), map[string][]byte{"n": []byte("bound")}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "bound" {
		t.Fatalf("arg = %q", got)
	}
	// Unbound args resolve to their literal names.
	if _, err := ExecTerm(env, "p", term, evidence.Empty(), nil); err != nil {
		t.Fatal(err)
	}
	if string(got) != "n" {
		t.Fatalf("unbound arg = %q", got)
	}
}

func TestEvalErrors(t *testing.T) {
	env, _ := testEnv(t)
	if _, err := ExecTerm(env, "nowhere", Cpy(), evidence.Empty(), nil); !errors.Is(err, ErrUnknownPlace) {
		t.Fatalf("unknown place: %v", err)
	}
	at, _ := Parse(`@ghost [_]`)
	if _, err := ExecTerm(env, "bank", at, evidence.Empty(), nil); !errors.Is(err, ErrUnknownPlace) {
		t.Fatalf("unknown @place: %v", err)
	}
	noSign := NewPlace("mute", nil)
	env.AddPlace(noSign)
	if _, err := ExecTerm(env, "mute", Sig(), evidence.Empty(), nil); !errors.Is(err, ErrNoSigner) {
		t.Fatalf("signerless place: %v", err)
	}
	bare := NewPlace("bare", nil)
	env.AddPlace(bare)
	if _, err := ExecTerm(env, "bare", &ASP{Name: "mystery"}, evidence.Empty(), nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("missing handler: %v", err)
	}
	// Errors propagate through composition.
	seq, _ := Parse(`@ghost [_] -> _`)
	if _, err := ExecTerm(env, "bank", seq, evidence.Empty(), nil); err == nil {
		t.Fatal("error swallowed by ->")
	}
	par, _ := Parse(`@ghost [_] -~- _`)
	if _, err := ExecTerm(env, "bank", par, evidence.Empty(), nil); err == nil {
		t.Fatal("error swallowed by ~")
	}
	par2, _ := Parse(`_ -~- @ghost [_]`)
	if _, err := ExecTerm(env, "bank", par2, evidence.Empty(), nil); err == nil {
		t.Fatal("right error swallowed by ~")
	}
	bseq, _ := Parse(`@ghost [_] -<- _`)
	if _, err := ExecTerm(env, "bank", bseq, evidence.Empty(), nil); err == nil {
		t.Fatal("error swallowed by <")
	}
	// Only a binder can decide a guard's test: the VM refuses an
	// unresolved one and never runs its body.
	ran := false
	bare.Handle("tripwire", func(*Call) (*evidence.Evidence, error) { ran = true; return evidence.Empty(), nil })
	guard, _ := Parse(`K |> tripwire`)
	if _, err := ExecTerm(env, "bare", guard, evidence.Empty(), nil); err == nil || ran {
		t.Fatalf("unresolved guard: err %v, body ran %v", err, ran)
	}
}

func TestEvalTraceOrder(t *testing.T) {
	env, _ := testEnv(t)
	req, _ := ParseRequest(expr2)
	res, err := Exec(env, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range res.Trace {
		names = append(names, ev.ASP+"@"+ev.Place)
	}
	joined := strings.Join(names, " ")
	want := "av@ks !@ks bmon@us !@us"
	if joined != want {
		t.Fatalf("trace %q, want %q", joined, want)
	}
}

func TestEvalAdversarySwapsParallel(t *testing.T) {
	env, _ := testEnv(t)
	env.AdversarySwapsParallel = true
	req, _ := ParseRequest(expr1)
	res, err := Exec(env, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The adversary runs the us branch first...
	if res.Trace[0].Place != "us" {
		t.Fatalf("trace: %v", res.Trace)
	}
	// ...but the evidence still reads left (ks) then right (us): the
	// relying party cannot tell the schedule from the evidence. That is
	// the heart of the repair attack.
	if res.Evidence.Kind != evidence.KindPar {
		t.Fatalf("evidence: %v", res.Evidence)
	}
	ms := evidence.Measurements(res.Evidence)
	if ms[0].Place != "ks" || ms[1].Place != "us" {
		t.Fatalf("evidence order: %v", ms)
	}
}

func TestEvalConcurrentParallel(t *testing.T) {
	env, _ := testEnv(t)
	env.Concurrent = true
	term, _ := Parse(`av us bmon -~- bmon us exts`)
	for i := 0; i < 20; i++ {
		res, err := ExecTerm(env, "ks", term, evidence.Empty(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Evidence shape must be deterministic despite scheduling.
		ms := evidence.Measurements(res.Evidence)
		if len(ms) != 2 || ms[0].Measurer != "av" || ms[1].Measurer != "bmon" {
			t.Fatalf("iteration %d: %v", i, res.Evidence)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 1, Place: "ks", ASP: "av", Target: "bmon"}
	if !strings.Contains(e.String(), "av@ks") {
		t.Fatalf("event string: %s", e)
	}
	e2 := Event{Seq: 2, Place: "ks", ASP: "!"}
	if strings.Contains(e2.String(), "→") {
		t.Fatalf("untargeted event shows arrow: %s", e2)
	}
}
