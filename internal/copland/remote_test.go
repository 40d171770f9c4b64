package copland

import (
	"errors"
	"strings"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/rot"
)

// remoteFixture builds a "client device" environment served over an
// in-memory rats pipe, and a "bank" environment that reaches the device's
// places remotely. This is the §4.2 setting as it would actually deploy:
// the bank never holds the client's keys or measurement handlers.
func remoteFixture(t *testing.T) (local *Env, deviceKeys evidence.KeyMap, cleanup func()) {
	t.Helper()
	device := NewEnv()
	keys := evidence.KeyMap{}
	for _, name := range []string{"ks", "us"} {
		r := rot.NewDeterministic(name, []byte("remote:"+name))
		keys[name] = r.Public()
		pl := NewPlace(name, r)
		pl.HandleDefault(measureHandler())
		device.AddPlace(pl)
	}

	clientConn, serverConn := rats.Pipe()
	go rats.Serve(serverConn, ServeEnv(device))

	local = NewEnv()
	local.AddPlace(NewPlace("bank", rot.NewDeterministic("bank", []byte("b"))))
	local.AddRemotePlace("ks", clientConn)
	local.AddRemotePlace("us", clientConn)
	return local, keys, func() { clientConn.Close(); serverConn.Close() }
}

func TestRemoteExecutionBankExample(t *testing.T) {
	env, keys, cleanup := remoteFixture(t)
	defer cleanup()

	req, err := ParseRequest(expr2) // the sequenced bank protocol
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(env, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Evidence shape identical to local evaluation...
	ms := evidence.Measurements(res.Evidence)
	if len(ms) != 2 || ms[0].Measurer != "av" || ms[1].Measurer != "bmon" {
		t.Fatalf("measurements: %v", res.Evidence)
	}
	// ...with signatures produced by the REMOTE keys.
	n, err := evidence.VerifySignatures(res.Evidence, keys)
	if err != nil || n != 2 {
		t.Fatalf("signatures: %d %v", n, err)
	}
	// The remote trace is merged into the local one.
	joined := ""
	for _, e := range res.Trace {
		joined += e.String() + " "
	}
	if !strings.Contains(joined, "remote:") {
		t.Fatalf("trace lacks remote events: %v", res.Trace)
	}
}

func TestRemoteMatchesLocalEvidence(t *testing.T) {
	// The same request evaluated locally and remotely (same seeds) must
	// produce byte-identical evidence: distribution is transparent.
	localEnv := NewEnv()
	for _, name := range []string{"ks", "us"} {
		pl := NewPlace(name, rot.NewDeterministic(name, []byte("remote:"+name)))
		pl.HandleDefault(measureHandler())
		localEnv.AddPlace(pl)
	}
	localEnv.AddPlace(NewPlace("bank", rot.NewDeterministic("bank", []byte("b"))))

	remoteEnv, _, cleanup := remoteFixture(t)
	defer cleanup()

	req, _ := ParseRequest(expr2)
	a, err := Exec(localEnv, req, map[string][]byte{"n": []byte("same")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exec(remoteEnv, req, map[string][]byte{"n": []byte("same")})
	if err != nil {
		t.Fatal(err)
	}
	if !evidence.Equal(a.Evidence, b.Evidence) {
		t.Fatalf("local and remote evidence differ:\n  local:  %v\n  remote: %v", a.Evidence, b.Evidence)
	}
}

func TestRemoteParamsTravel(t *testing.T) {
	device := NewEnv()
	pl := NewPlace("p", rot.NewDeterministic("p", []byte("p")))
	var got []byte
	pl.Handle("certify", func(c *Call) (*evidence.Evidence, error) {
		got = c.Arg(0)
		return c.Input, nil
	})
	device.AddPlace(pl)
	cc, sc := rats.Pipe()
	defer cc.Close()
	defer sc.Close()
	go rats.Serve(sc, ServeEnv(device))

	env := NewEnv()
	env.AddPlace(NewPlace("rp", nil))
	env.AddRemotePlace("p", cc)
	term, _ := Parse(`@p [certify(n)]`)
	if _, err := ExecTerm(env, "rp", term, evidence.Nonce([]byte("x")), map[string][]byte{"n": []byte("bound-value")}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "bound-value" {
		t.Fatalf("param at remote: %q", got)
	}
}

func TestRemoteInputEvidenceTravels(t *testing.T) {
	env, _, cleanup := remoteFixture(t)
	defer cleanup()
	// `_` at the remote returns its input unchanged: round trip.
	term, _ := Parse(`@us [_]`)
	in := evidence.Nonce([]byte("travel"))
	res, err := ExecTerm(env, "bank", term, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !evidence.Equal(in, res.Evidence) {
		t.Fatalf("input evidence mangled: %v", res.Evidence)
	}
}

func TestRemoteErrors(t *testing.T) {
	env, _, cleanup := remoteFixture(t)
	defer cleanup()

	// Unknown remote ASP: the remote reports, the local surfaces.
	term, _ := Parse(`@us [unknownASP target]`)
	// measureHandler handles any name — use a place with no handler.
	device2 := NewEnv()
	device2.AddPlace(NewPlace("bare", nil))
	cc, sc := rats.Pipe()
	defer cc.Close()
	defer sc.Close()
	go rats.Serve(sc, ServeEnv(device2))
	env.AddRemotePlace("bare", cc)
	term, _ = Parse(`@bare [mystery]`)
	if _, err := ExecTerm(env, "bank", term, evidence.Empty(), nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("remote handler error: %v", err)
	}
	// Unknown remote place name at the server.
	term, _ = Parse(`@ghost [_]`)
	env.AddRemotePlace("ghost", cc)
	if _, err := ExecTerm(env, "bank", term, evidence.Empty(), nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("ghost place: %v", err)
	}
	// Dead transport.
	cc2, sc2 := rats.Pipe()
	cc2.Close()
	sc2.Close()
	env.AddRemotePlace("dead", cc2)
	term, _ = Parse(`@dead [_]`)
	if _, err := ExecTerm(env, "bank", term, evidence.Empty(), nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("dead transport: %v", err)
	}
}

func TestServeEnvRejects(t *testing.T) {
	env := NewEnv()
	env.AddPlace(NewPlace("p", nil))
	h := ServeEnv(env)
	if h(&rats.Message{Type: rats.MsgChallenge}).Type != rats.MsgError {
		t.Fatal("wrong type serviced")
	}
	if h(&rats.Message{Type: rats.MsgExec, Claims: []string{"p"}}).Type != rats.MsgError {
		t.Fatal("short claims serviced")
	}
	if h(&rats.Message{Type: rats.MsgExec, Claims: []string{"ghost", "_"}}).Type != rats.MsgError {
		t.Fatal("ghost place serviced")
	}
	if h(&rats.Message{Type: rats.MsgExec, Claims: []string{"p", "(("}}).Type != rats.MsgError {
		t.Fatal("garbage term serviced")
	}
	if h(&rats.Message{Type: rats.MsgExec, Claims: []string{"p", "_"}, Body: []byte{1}}).Type != rats.MsgError {
		t.Fatal("garbage payload serviced")
	}
	// Parse accepts guards, so a remote guard must fail at execution; `_`
	// alone runs at p.
	payload := encodeExecPayload(nil, evidence.Empty())
	if h(&rats.Message{Type: rats.MsgExec, Claims: []string{"p", "_"}, Body: payload}).Type != rats.MsgEvidence {
		t.Fatal("copy refused")
	}
	for _, src := range []string{"K |> _", "K |> !"} {
		if h(&rats.Message{Type: rats.MsgExec, Claims: []string{"p", src}, Body: payload}).Type != rats.MsgError {
			t.Fatalf("unresolved guard %q serviced", src)
		}
	}
}

func TestExecPayloadRoundTrip(t *testing.T) {
	params := map[string][]byte{"n": []byte("nonce"), "X": []byte("prop"), "empty": nil}
	ev := evidence.Seq(evidence.Nonce([]byte("e")), evidence.Empty())
	got, gotEv, err := decodeExecPayload(encodeExecPayload(params, ev))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["n"]) != "nonce" || string(got["X"]) != "prop" {
		t.Fatalf("params: %v", got)
	}
	if !evidence.Equal(ev, gotEv) {
		t.Fatal("evidence mangled")
	}
	// Garbage payloads.
	for _, bad := range [][]byte{nil, {1}, {0, 0, 0, 5}, {0xFF, 0xFF, 0xFF, 0xFF}} {
		if _, _, err := decodeExecPayload(bad); err == nil {
			t.Errorf("payload %v decoded", bad)
		}
	}
}

func TestLocalPlaceShadowsRemote(t *testing.T) {
	// A locally registered place wins over a remote registration with
	// the same name: a host is authoritative for itself.
	env := NewEnv()
	r := rot.NewDeterministic("p", []byte("local"))
	pl := NewPlace("p", r)
	pl.HandleDefault(measureHandler())
	env.AddPlace(pl)
	cc, sc := rats.Pipe()
	cc.Close()
	sc.Close()
	env.AddRemotePlace("p", cc) // dead — would fail if used
	term, _ := Parse(`@p [m x t]`)
	if _, err := ExecTerm(env, "p", term, evidence.Empty(), nil); err != nil {
		t.Fatalf("local place not preferred: %v", err)
	}
}

// Concurrent parallel branches sharing one remote connection must not
// steal each other's responses (rats.Conn.Call serializes exchanges).
func TestRemoteConcurrentParallelBranches(t *testing.T) {
	env, keys, cleanup := remoteFixture(t)
	defer cleanup()
	env.Concurrent = true
	term, err := Parse(`@ks [av us bmon -> !] -~- @us [bmon us exts -> !]`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		res, err := ExecTerm(env, "bank", term, evidence.Empty(), nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := evidence.VerifySignatures(res.Evidence, keys)
		if err != nil || n != 2 {
			t.Fatalf("iteration %d: %d sigs, %v", i, n, err)
		}
		ms := evidence.Measurements(res.Evidence)
		if len(ms) != 2 || ms[0].Measurer != "av" || ms[1].Measurer != "bmon" {
			t.Fatalf("iteration %d: crossed responses: %v", i, res.Evidence)
		}
	}
}
