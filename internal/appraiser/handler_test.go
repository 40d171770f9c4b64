package appraiser

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// TestHandlerMalformedBodies: the appraise handler checks its body with
// evidence.Scan and never decodes it, yet a body that is not one
// canonical encoding still answers MsgError with exactly the text
// evidence.Decode gives for it.
func TestHandlerMalformedBodies(t *testing.T) {
	r := attesterRoT()
	good := evidence.Encode(goodEvidence(r, []byte("m")))
	msmt := evidence.Encode(evidence.Measurement("attest", "p", "sw1", evidence.DetailProgram, rot.Digest{}, nil))
	// The detail byte follows the kind byte and three fields.
	detailAt := 1
	for i := 0; i < 3; i++ {
		detailAt += 4 + int(binary.BigEndian.Uint32(msmt[detailAt:]))
	}
	badDetail := append([]byte(nil), msmt...)
	badDetail[detailAt] = 0xee
	huge := binary.BigEndian.AppendUint32([]byte{byte(evidence.KindNonce)}, 1<<20+1)
	huge = append(huge, make([]byte, 1<<20+1)...)
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"truncated", good[:len(good)-3]},
		{"kind 7", []byte{7}},
		{"invalid detail", badDetail},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
		{"field over 1 MiB", huge},
	} {
		_, want := evidence.Decode(c.body)
		if want == nil {
			t.Fatalf("%s: Decode accepted the body", c.name)
		}
		resp := newAppraiser(r).Handler()(&rats.Message{
			Type: rats.MsgAppraise, Session: 3, Nonce: []byte("m"), Body: c.body,
		})
		if resp.Type != rats.MsgError || string(resp.Body) != want.Error() {
			t.Fatalf("%s: %v %q, want MsgError %q", c.name, resp.Type, resp.Body, want.Error())
		}
	}
}

// TestHandlerMatchesAppraise: a decodable body appraised as bytes by the
// handler gets a certificate byte for byte the one Appraise issues on
// the body's decoded tree, from an identically provisioned appraiser:
// the verdict, the reason and the evidence digest read from the bytes
// are the tree's. A replayed nonce still answers ErrNonceReplayed.
func TestHandlerMatchesAppraise(t *testing.T) {
	r := attesterRoT()
	r.ExtendData(0, []byte("asic"), "hw")
	pcr0, _ := r.PCR(0)
	other := rot.NewDeterministic("sw9", []byte("other"))
	provision := func(strict bool) *Appraiser {
		a := newAppraiser(r)
		a.RegisterKey("sw9", other.Public())
		a.SetGolden("sw1", "hardware", evidence.DetailHardware, pcr0)
		a.Strict = strict
		return a
	}
	quoted := func(q *rot.Quote) *evidence.Evidence {
		return evidence.Sign(r, evidence.Seq(evidence.Measurement("sw1", "hardware", "sw1",
			evidence.DetailHardware, pcr0, rot.EncodeQuote(q)), goodEvidence(r, []byte("n"))))
	}
	ownQuote, _ := r.Quote(nil, 0, 4)
	foreignQuote, _ := other.Quote(nil, 0, 4)
	flipped := goodEvidence(r, []byte("n"))
	flipped.Signature = append([]byte(nil), flipped.Signature...)
	flipped.Signature[7] ^= 0x01
	stranger := rot.NewDeterministic("sw-unknown", []byte("stranger"))
	claim := func(target, value string) *evidence.Evidence {
		return evidence.Sign(r, evidence.Seq(evidence.Measurement("attest", target, "sw1",
			evidence.DetailProgram, rot.Sum([]byte(value)), nil), evidence.Nonce([]byte("n"))))
	}

	for _, c := range []struct {
		name   string
		ev     *evidence.Evidence
		strict bool
		pass   bool
	}{
		{"honest chain", goodEvidence(r, []byte("n")), false, true},
		{"honest chain with its quote", quoted(ownQuote), false, true},
		{"flipped signature byte", flipped, false, false},
		{"unknown signer", goodEvidence(stranger, []byte("n")), false, false},
		{"quote for another platform", quoted(foreignQuote), false, false},
		{"golden mismatch under Strict", claim("firewall_v5.p4", "rogue-bytes"), true, false},
		{"no golden value under Strict", claim("unlisted.p4", "x"), true, false},
		{"no golden value", claim("unlisted.p4", "x"), false, true},
	} {
		body := evidence.Encode(c.ev)
		nonce := []byte("round-" + c.name)
		resp := provision(c.strict).Handler()(&rats.Message{
			Type: rats.MsgAppraise, Session: 4, Nonce: nonce, Claims: []string{"sw1"}, Body: body,
		})
		if resp.Type != rats.MsgResult {
			t.Fatalf("%s: %v %s", c.name, resp.Type, resp.Body)
		}
		tree, err := evidence.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := provision(c.strict).Appraise("sw1", tree, nonce)
		if err != nil {
			t.Fatal(err)
		}
		if want.Verdict != c.pass {
			t.Fatalf("%s: verdict %v (%s), want %v", c.name, want.Verdict, want.Reason, c.pass)
		}
		if !bytes.Equal(resp.Body, want.Encode()) {
			got, _ := DecodeCertificate(resp.Body)
			t.Fatalf("%s: handler certificate %+v, Appraise's %+v", c.name, got, want)
		}
	}

	a := provision(false)
	h := a.Handler()
	round := &rats.Message{Type: rats.MsgAppraise, Nonce: []byte("once"),
		Body: evidence.Encode(goodEvidence(r, []byte("once")))}
	if resp := h(round); resp.Type != rats.MsgResult {
		t.Fatalf("first round: %v %s", resp.Type, resp.Body)
	}
	if resp := h(round); resp.Type != rats.MsgError || string(resp.Body) != ErrNonceReplayed.Error() {
		t.Fatalf("replayed round: %v %q, want %q", resp.Type, resp.Body, ErrNonceReplayed)
	}
}

// TestHandlerQuoteHitAllocs: after the first RATS round a switch's
// cached hardware quote is a memo hit, and the appraise handler reads it
// in place: a chain whose hardware claim carries the quote allocates
// exactly as much as the same chain whose claim carries none.
func TestHandlerQuoteHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so allocation counts vary")
	}
	r := attesterRoT()
	r.ExtendData(0, []byte("asic"), "hw")
	pcr0, _ := r.PCR(0)
	q, _ := r.Quote(nil, 0, 4)
	const rounds = 200
	allocs := func(claims []byte) float64 {
		a := newAppraiser(r)
		a.SetGolden("sw1", "hardware", evidence.DetailHardware, pcr0)
		h := a.Handler()
		body := evidence.Encode(evidence.Sign(r, evidence.Seq(evidence.Measurement("sw1", "hardware", "sw1",
			evidence.DetailHardware, pcr0, claims), goodEvidence(r, []byte("n")))))
		// One round before the measured ones fills the memo; AllocsPerRun
		// runs its function once more than it measures.
		msgs := make([]*rats.Message, rounds+2)
		for i := range msgs {
			msgs[i] = &rats.Message{Type: rats.MsgAppraise, Nonce: []byte(fmt.Sprintf("round-%d", i)), Body: body}
		}
		var resp *rats.Message
		next := 0
		round := func() { resp = h(msgs[next]); next++ }
		round()
		misses := a.MemoStats().Misses
		n := testing.AllocsPerRun(rounds, round)
		cert, err := DecodeCertificate(resp.Body)
		if resp.Type != rats.MsgResult || err != nil || !cert.Verdict {
			t.Fatalf("claims %d bytes: last round %v %q (%v)", len(claims), resp.Type, resp.Body, err)
		}
		if ms := a.MemoStats(); ms.Misses != misses {
			t.Fatalf("claims %d bytes: memo %+v, want every measured round answered by the memo", len(claims), ms)
		}
		return n
	}
	plain, quoted := allocs(nil), allocs(rot.EncodeQuote(q))
	if quoted != plain {
		t.Fatalf("a memo-answered quote costs the handler %v allocations per round (%v with it, %v without)",
			quoted-plain, quoted, plain)
	}
}

// TestHandlerKeepsNoFrameBytes: a request's byte fields alias its frame
// (rats.Decode), and what the handler keeps past its return is copied:
// overwriting the frame afterwards leaves the stored certificate and the
// replay set as they were.
func TestHandlerKeepsNoFrameBytes(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	h := a.Handler()
	nonce := []byte("frame-nonce")
	appraise := func(session uint64, nonce []byte) *rats.Message {
		return &rats.Message{
			Type: rats.MsgAppraise, Session: session, Nonce: nonce, Claims: []string{"sw1"},
			Body: evidence.Encode(goodEvidence(r, nonce)),
		}
	}
	frame := rats.Encode(appraise(1, nonce))
	req, err := rats.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	resp := h(req)
	if resp.Type != rats.MsgResult {
		t.Fatalf("appraise: %v %q", resp.Type, resp.Body)
	}
	issued := resp.Body
	for i := range frame {
		frame[i] = 0x5a
	}
	cert, err := a.Retrieve(nonce)
	if err != nil || !bytes.Equal(cert.Encode(), issued) || cert.Subject != "sw1" || !bytes.Equal(cert.Nonce, nonce) {
		t.Fatalf("stored certificate changed with the frame: %+v %v", cert, err)
	}
	if resp := h(appraise(2, nonce)); resp.Type != rats.MsgError || string(resp.Body) != ErrNonceReplayed.Error() {
		t.Fatalf("replayed nonce: %v %q", resp.Type, resp.Body)
	}
	if resp := h(appraise(3, bytes.Repeat([]byte{0x5a}, len(nonce)))); resp.Type != rats.MsgResult {
		t.Fatalf("a nonce spelling the overwritten frame bytes counts as used: %v %q", resp.Type, resp.Body)
	}
}

// TestCertificateStoreBounded: the store keeps the newest maxCerts
// certificates. Storing k more forgets exactly the k oldest, every newer
// one stays retrievable, and storing many times the bound retains no
// more heap than the bound's worth.
func TestCertificateStoreBounded(t *testing.T) {
	a := New("Appraiser", []byte("store"))
	nonce := func(i int) []byte { return []byte(fmt.Sprintf("nonce-%07d", i)) }
	store := func(from, to int) {
		for i := from; i < to; i++ {
			a.Store(&Certificate{Issuer: "Appraiser", Nonce: nonce(i), Reason: "ok", Serial: uint64(i)})
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const k = 100
	h0 := heap()
	store(0, maxCerts)
	h1 := heap()
	store(maxCerts, maxCerts+k)
	for i := 0; i < k; i++ {
		if _, err := a.Retrieve(nonce(i)); !errors.Is(err, ErrNoCertificate) {
			t.Fatalf("certificate %d of %d stored: %v, want ErrNoCertificate", i, maxCerts+k, err)
		}
	}
	for i := k; i < maxCerts+k; i++ {
		if c, err := a.Retrieve(nonce(i)); err != nil || c.Serial != uint64(i) {
			t.Fatalf("certificate %d: %+v, %v", i, c, err)
		}
	}
	store(maxCerts+k, 4*maxCerts)
	h2 := heap()
	bound := int64(h1) - int64(h0) // what maxCerts certificates retain
	if grew := int64(h2) - int64(h1); grew > bound/2 {
		t.Fatalf("storing %d more certificates retained %d B, want at most half of the bound's %d B",
			3*maxCerts, grew, bound)
	}
	// A nonce stored again replaces its certificate in place.
	a.Store(&Certificate{Nonce: nonce(4*maxCerts - 1), Serial: 1})
	if c, _ := a.Retrieve(nonce(4*maxCerts - maxCerts)); c == nil {
		t.Fatal("re-storing a held nonce displaced the oldest certificate")
	}
}

// TestInstrumentBeforeEnableMemo: EnableMemo empties the memo in place,
// so a registry the appraiser was instrumented into before it reads the
// memo that appraisals use, not one that was thrown away.
func TestInstrumentBeforeEnableMemo(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	reg := telemetry.NewRegistry()
	a.Instrument(reg)
	if c, err := a.Appraise("sw1", goodEvidence(r, []byte("i1")), nil); err != nil || !c.Verdict {
		t.Fatalf("appraise: %+v, %v", c, err)
	}
	a.EnableMemo(16)
	ev := goodEvidence(r, []byte("i2"))
	for i := 0; i < 2; i++ {
		if c, err := a.Appraise("sw1", ev, nil); err != nil || !c.Verdict {
			t.Fatalf("appraise: %+v, %v", c, err)
		}
	}
	snap := reg.Snapshot()
	if h, m, e := snap.Value("pera_verify_memo_hits_total"), snap.Value("pera_verify_memo_misses_total"),
		snap.Value("pera_verify_memo_entries"); h != 2 || m != 1 || e != 1 {
		t.Fatalf("registry reads hits %v, misses %v, entries %v; want 2, 1, 1", h, m, e)
	}
}
