package pera

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/rats"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// memoPolicy is a one-claim, signing in-band policy bound to nonce.
func memoPolicy(nonce string) *Policy {
	return &Policy{ID: 16, Nonce: []byte(nonce), Obls: []Obligation{{
		Claims:       []evidence.Detail{evidence.DetailProgram},
		SignEvidence: true,
	}}}
}

// signedChain pops the chain sw signed off one Receive output frame.
func signedChain(t *testing.T, outs []netsim.Emission, err error) *evidence.Evidence {
	t.Helper()
	if err != nil || len(outs) != 1 {
		t.Fatalf("receive: %d frames, %v", len(outs), err)
	}
	hdr, _, err := Pop(outs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	return hdr.Evidence
}

// sameAsBare reports whether ev, a signature node, encodes byte for byte
// as evidence.Sign with the bare signer makes it over the same chain.
func sameAsBare(bare evidence.Signer, ev *evidence.Evidence) error {
	if ev == nil || ev.Kind != evidence.KindSig {
		return fmt.Errorf("not a signature node: %v", ev)
	}
	got, want := evidence.Encode(ev), evidence.Encode(evidence.Sign(bare, ev.Left))
	if !bytes.Equal(got, want) {
		return fmt.Errorf("memoized evidence differs from a bare sign:\n got %x\nwant %x", got, want)
	}
	return nil
}

// TestSignMemoByteIdentity pins the memo as exact: every chain a switch
// signs, through Attest and Receive, fresh or repeated, encodes byte for
// byte as evidence.Sign with the switch's bare RoT makes it. There are
// more fresh chains than slots, so slots are reused.
// Mutation caught: a lookup that trusts the slot index without comparing
// its key answers a fresh chain with another chain's signature.
func TestSignMemoByteIdentity(t *testing.T) {
	sw := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	bare := sw.RoT()
	frame := testFrame(t, sw)
	check := func(what string, ev *evidence.Evidence, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := sameAsBare(bare, ev); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// Attest and Receive build the same chain from one nonce, so each
	// path gets nonces of its own.
	for i := 0; i < signMemoSlots+44; i++ {
		ev, err := sw.Attest([]byte(fmt.Sprintf("attest-%d", i)), evidence.DetailProgram)
		check("fresh Attest", ev, err)
		outs, err := sw.Receive(1, WrapFrame(memoPolicy(fmt.Sprintf("receive-%d", i)), frame))
		check("fresh Receive", signedChain(t, outs, err), nil)
	}
	if hits := sw.Stats().SignMemoHits; hits != 0 {
		t.Fatalf("%d memo hits on chains that never repeat", hits)
	}

	for i := 0; i < 4; i++ {
		ev, err := sw.Attest([]byte("attest-again"), evidence.DetailProgram)
		check("repeated Attest", ev, err)
	}
	wire := WrapFrame(memoPolicy("receive-again"), frame)
	for i := 0; i < 4; i++ {
		outs, err := sw.Receive(1, wire)
		check("repeated Receive", signedChain(t, outs, err), nil)
	}
	if st := sw.Stats(); st.SignMemoHits != 6 || st.SignOps != 2*(signMemoSlots+44)+8 {
		t.Fatalf("sign ops %d, memo hits %d; want %d ops and 6 hits",
			st.SignOps, st.SignMemoHits, 2*(signMemoSlots+44)+8)
	}
}

// TestSignMemoSetSignerNewKey swaps in a signer that uses the switch's
// name but holds a different key: the next signature over an
// already-memoized chain must verify under the new key only.
// Mutation caught: SetSigner keeping the old signer's table.
func TestSignMemoSetSignerNewKey(t *testing.T) {
	sw := newSwitch(t, "sw1", Config{})
	oldKey := sw.RoT().Public()
	for i := 0; i < 2; i++ {
		if _, err := sw.Attest([]byte("n"), evidence.DetailProgram); err != nil {
			t.Fatal(err)
		}
	}
	if hits := sw.Stats().SignMemoHits; hits != 1 {
		t.Fatalf("memo hits before the swap: %d, want 1", hits)
	}
	rogue := rot.NewDeterministic("sw1", []byte("another key"))
	sw.SetSigner(rogue)
	ev, err := sw.Attest([]byte("n"), evidence.DetailProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evidence.VerifySignatures(ev, evidence.KeyMap{"sw1": rogue.Public()}); err != nil {
		t.Fatalf("new signer's evidence under its own key: %v", err)
	}
	if _, err := evidence.VerifySignatures(ev, evidence.KeyMap{"sw1": oldKey}); !errors.Is(err, evidence.ErrBadSignature) {
		t.Fatalf("new signer's evidence under the old key: %v, want a bad signature", err)
	}
}

// flakyCaller fails every call while down is set: an offload link that
// drops and comes back.
type flakyCaller struct {
	Caller
	down atomic.Bool
}

func (f *flakyCaller) Call(m *rats.Message) (*rats.Message, error) {
	if f.down.Load() {
		return nil, errors.New("offload link down")
	}
	return f.Caller.Call(m)
}

// TestSignMemoSkipsFailedRemoteSign: a RemoteSigner whose transport
// fails returns nil; the memo must not keep it, so the first sign of the
// same chain after the link recovers is a real, valid signature.
// Mutation caught: storing a result of any length.
func TestSignMemoSkipsFailedRemoteSign(t *testing.T) {
	svc := NewSignerService()
	cc, sc := rats.Pipe()
	defer cc.Close()
	defer sc.Close()
	go rats.Serve(sc, svc.Handler())
	sw := newSwitch(t, "sw1", Config{})
	svc.Host(rot.NewDeterministic("sw1", []byte("pera:sw1"))) // the switch's own key
	link := &flakyCaller{Caller: cc}
	rs := NewRemoteSigner("sw1", link)
	sw.SetSigner(rs)
	keys := evidence.KeyMap{"sw1": sw.RoT().Public()}

	link.down.Store(true)
	ev, err := sw.Attest([]byte("n"), evidence.DetailProgram)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Signature != nil || rs.Err() == nil {
		t.Fatalf("sign over a down link: signature %x, error %v", ev.Signature, rs.Err())
	}
	link.down.Store(false)
	for i := 0; i < 2; i++ {
		ev, err := sw.Attest([]byte("n"), evidence.DetailProgram)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := evidence.VerifySignatures(ev, keys); err != nil {
			t.Fatalf("sign %d after the link recovered: %v", i+1, err)
		}
	}
	if st := sw.Stats(); st.SignMemoHits != 1 || rs.Calls() != 2 {
		t.Fatalf("memo hits %d, remote calls %d; want 1 and 2", st.SignMemoHits, rs.Calls())
	}
}

// TestSignMemoConcurrentReceive runs concurrent Receive of repeated and
// fresh frames with one SetSigner mid-run, for the race detector. The
// new signer holds the switch's own key, so every output must still be
// byte-identical to a bare sign.
func TestSignMemoConcurrentReceive(t *testing.T) {
	sw := newSwitch(t, "sw1", Config{InBand: true, Composition: evidence.Chained})
	bare := sw.RoT()
	frame := testFrame(t, sw)
	repeated := WrapFrame(memoPolicy("repeated"), frame)
	const workers, perWorker = 4, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					sw.SetSigner(rot.NewDeterministic("sw1", []byte("pera:sw1")))
				}
				wire := repeated
				if i%2 == 1 {
					wire = WrapFrame(memoPolicy(fmt.Sprintf("fresh-%d-%d", w, i)), frame)
				}
				outs, err := sw.Receive(1, wire)
				if err != nil || len(outs) != 1 {
					t.Errorf("receive: %d frames, %v", len(outs), err)
					return
				}
				hdr, _, err := Pop(outs[0].Frame)
				if err == nil {
					err = sameAsBare(bare, hdr.Evidence)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := sw.Stats()
	if st.SignOps != workers*perWorker || st.SignMemoHits == 0 || st.SignMemoHits >= st.SignOps/2 {
		t.Fatalf("sign ops %d, memo hits %d: want %d ops, hits only on the repeated half",
			st.SignOps, st.SignMemoHits, workers*perWorker)
	}
}

// TestSignMemoAllocs pins the memo's allocation cost. A miss allocates
// no more than evidence.Sign with the bare signer: the table is
// allocated once, on the first Sign. A hit allocates only the evidence
// node and its signature copy.
// Mutation caught: allocating per insert (a map, or a heap slot per
// entry).
func TestSignMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	r := rot.NewDeterministic("sw1", []byte("pera:sw1"))
	m := evidence.Measurement("sw1", "prog", "sw1", evidence.DetailProgram, rot.Digest{4: 4}, nil)
	var chains []*evidence.Evidence
	for i := 0; i < 210; i++ {
		chains = append(chains, evidence.Seq(evidence.Nonce([]byte(fmt.Sprintf("n-%d", i))), m))
	}
	fresh := func() *evidence.Evidence {
		e := chains[0]
		chains = chains[1:]
		return e
	}
	bare := testing.AllocsPerRun(100, func() { evidence.Sign(r, fresh()) })

	var hits telemetry.Counter
	memo := &signMemo{inner: r, hits: &hits}
	evidence.Sign(memo, fresh()) // allocates the table
	if miss := testing.AllocsPerRun(100, func() { evidence.Sign(memo, fresh()) }); miss > bare {
		t.Fatalf("memo miss allocated %.1f/op, bare sign %.1f/op", miss, bare)
	}
	if hits.Value() != 0 {
		t.Fatalf("%d hits on fresh chains", hits.Value())
	}
	again := fresh()
	evidence.Sign(memo, again)
	if hit := testing.AllocsPerRun(100, func() { evidence.Sign(memo, again) }); hit != 2 {
		t.Fatalf("memo hit allocated %.1f/op, want 2 (evidence node, signature copy)", hit)
	}
}
