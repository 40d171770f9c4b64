package appraiser

import (
	"errors"
	"strings"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/rot"
)

func attesterRoT() *rot.RoT { return rot.NewDeterministic("sw1", []byte("sw1-seed")) }

func goodEvidence(r *rot.RoT, nonce []byte) *evidence.Evidence {
	m := evidence.Measurement("attest", "firewall_v5.p4", "sw1", evidence.DetailProgram,
		rot.Sum([]byte("prog-bytes")), nil)
	return evidence.Sign(r, evidence.Seq(m, evidence.Nonce(nonce)))
}

func newAppraiser(r *rot.RoT) *Appraiser {
	a := New("Appraiser", []byte("seed"))
	a.RegisterKey("sw1", r.Public())
	a.SetGolden("sw1", "firewall_v5.p4", evidence.DetailProgram, rot.Sum([]byte("prog-bytes")))
	return a
}

func TestAppraiseGoodEvidence(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	nonce := []byte("n1")
	cert, err := a.Appraise("sw1", goodEvidence(r, nonce), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Verdict {
		t.Fatalf("good evidence rejected: %s", cert.Reason)
	}
	if err := VerifyCertificate(a.Public(), cert); err != nil {
		t.Fatalf("certificate: %v", err)
	}
	if cert.Subject != "sw1" || string(cert.Nonce) != "n1" {
		t.Fatalf("cert fields: %+v", cert)
	}
}

func TestAppraiseDetectsMismatch(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	// Evidence claims a different program digest than golden.
	bad := evidence.Sign(r, evidence.Measurement("attest", "firewall_v5.p4", "sw1",
		evidence.DetailProgram, rot.Sum([]byte("rogue-bytes")), nil))
	cert, err := a.Appraise("sw1", bad, []byte("n2"))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict {
		t.Fatal("mismatched measurement accepted")
	}
	if !strings.Contains(cert.Reason, "mismatch") {
		t.Fatalf("reason: %s", cert.Reason)
	}
}

func TestAppraiseDetectsBadSignature(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	ev := goodEvidence(r, []byte("n"))
	ev.Left.Left.Value[0] ^= 1 // tamper inside the signed payload
	cert, _ := a.Appraise("sw1", ev, []byte("n3"))
	if cert.Verdict {
		t.Fatal("tampered evidence accepted")
	}
}

func TestAppraiseUnknownSigner(t *testing.T) {
	r := attesterRoT()
	a := New("Appraiser", []byte("seed")) // no keys registered
	cert, _ := a.Appraise("sw1", goodEvidence(r, nil), []byte("n4"))
	if cert.Verdict {
		t.Fatal("unknown signer accepted")
	}
}

func TestAppraiseNonceReplay(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	nonce := []byte("replay-me")
	if _, err := a.Appraise("sw1", goodEvidence(r, nonce), nonce); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Appraise("sw1", goodEvidence(r, nonce), nonce); !errors.Is(err, ErrNonceReplayed) {
		t.Fatalf("replay: %v", err)
	}
	// Empty nonces are exempt (nonce-free in-band mode).
	if _, err := a.Appraise("sw1", goodEvidence(r, nil), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Appraise("sw1", goodEvidence(r, nil), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRequireNonceBinding(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	a.RequireNonce = true
	// Evidence carries nonce "x" but session nonce is "y".
	cert, err := a.Appraise("sw1", goodEvidence(r, []byte("x")), []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict {
		t.Fatal("evidence without session nonce accepted")
	}
	cert, _ = a.Appraise("sw1", goodEvidence(r, []byte("z")), []byte("z"))
	if !cert.Verdict {
		t.Fatalf("bound nonce rejected: %s", cert.Reason)
	}
}

func TestStrictMode(t *testing.T) {
	r := attesterRoT()
	a := New("Appraiser", []byte("seed"))
	a.RegisterKey("sw1", r.Public())
	ev := goodEvidence(r, nil)
	cert, _ := a.Appraise("sw1", ev, []byte("s1"))
	if !cert.Verdict || !strings.Contains(cert.Reason, "unreferenced") {
		t.Fatalf("permissive mode: %+v", cert)
	}
	a.Strict = true
	cert, _ = a.Appraise("sw1", ev, []byte("s2"))
	if cert.Verdict {
		t.Fatal("strict mode accepted unreferenced measurement")
	}
}

func TestAppraiseMalformedEvidence(t *testing.T) {
	a := New("Appraiser", []byte("seed"))
	bad := &evidence.Evidence{Kind: evidence.KindSeq} // missing children
	cert, err := a.Appraise("x", bad, []byte("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict {
		t.Fatal("malformed evidence accepted")
	}
}

func TestCertificateCodecRoundTrip(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	cert, _ := a.Appraise("sw1", goodEvidence(r, []byte("c")), []byte("c"))
	dec, err := DecodeCertificate(cert.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Issuer != cert.Issuer || dec.Subject != cert.Subject ||
		dec.Verdict != cert.Verdict || dec.Serial != cert.Serial ||
		dec.EvidenceDigest != cert.EvidenceDigest || dec.Reason != cert.Reason {
		t.Fatalf("round trip: %+v != %+v", dec, cert)
	}
	if err := VerifyCertificate(a.Public(), dec); err != nil {
		t.Fatalf("decoded cert: %v", err)
	}
}

func TestCertificateTamperDetected(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	cert, _ := a.Appraise("sw1", goodEvidence(r, []byte("t")), []byte("t"))
	cert.Verdict = !cert.Verdict
	if err := VerifyCertificate(a.Public(), cert); err == nil {
		t.Fatal("flipped verdict verified")
	}
}

func TestDecodeCertificateGarbage(t *testing.T) {
	cases := [][]byte{nil, []byte("junk"), []byte("PERA-RESULT-V1\x00"), make([]byte, 20)}
	r := attesterRoT()
	a := newAppraiser(r)
	cert, _ := a.Appraise("sw1", goodEvidence(r, []byte("g")), []byte("g"))
	enc := cert.Encode()
	cases = append(cases, enc[:len(enc)-3])
	for i, data := range cases {
		if _, err := DecodeCertificate(data); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

// TestDecodeCertificateCanonical: a certificate has one wire form. Bytes
// appended after the signature field, or a verdict byte other than 0 or
// 1, are rejected rather than decoded into a certificate that still
// passes VerifyCertificate.
func TestDecodeCertificateCanonical(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	cert, _ := a.Appraise("sw1", goodEvidence(r, []byte("canon")), []byte("canon"))
	enc := cert.Encode()
	if _, err := DecodeCertificate(append(enc[:len(enc):len(enc)], 0)); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("trailing byte: %v", err)
	}
	verdictAt := len("PERA-RESULT-V1\x00") + 4 + len(cert.Issuer) + 4 + len(cert.Subject) +
		4 + len(cert.Nonce) + rot.DigestSize
	if enc[verdictAt] != 1 {
		t.Fatalf("verdict byte at %d is %d, want 1", verdictAt, enc[verdictAt])
	}
	two := append([]byte(nil), enc...)
	two[verdictAt] = 2
	if _, err := DecodeCertificate(two); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("verdict byte 2: %v", err)
	}
}

// TestDecodeCertificateCopiesOnce: the decoded certificate owns its
// fields, so overwriting the input afterwards changes none of them, and
// it takes three allocations: the certificate, one string its text
// fields are cut from and one slab for its nonce and signature.
func TestDecodeCertificateCopiesOnce(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	cert, _ := a.Appraise("sw1", goodEvidence(r, []byte("once")), []byte("once"))
	enc := cert.Encode()
	dec, err := DecodeCertificate(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xa5
	}
	if err := VerifyCertificate(a.Public(), dec); err != nil || dec.Subject != "sw1" || string(dec.Nonce) != "once" {
		t.Fatalf("decoded certificate changed with its input: %+v %v", dec, err)
	}
	if raceEnabled {
		return
	}
	enc = cert.Encode()
	if n := testing.AllocsPerRun(100, func() { DecodeCertificate(enc) }); n != 3 {
		t.Fatalf("DecodeCertificate allocated %v times, want 3", n)
	}
}

func TestStoreRetrieve(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	cert, _ := a.Appraise("sw1", goodEvidence(r, []byte("sr")), []byte("sr"))
	a.Store(cert)
	got, err := a.Retrieve([]byte("sr"))
	if err != nil || got.Serial != cert.Serial {
		t.Fatalf("retrieve: %+v %v", got, err)
	}
	if _, err := a.Retrieve([]byte("missing")); !errors.Is(err, ErrNoCertificate) {
		t.Fatalf("missing: %v", err)
	}
}

func TestRegisterAIK(t *testing.T) {
	auth := rot.NewDeterministicAuthority("op", []byte("authority"))
	r := attesterRoT()
	cert := auth.Issue(r)
	a := New("Appraiser", []byte("seed"))
	if err := a.RegisterAIK(auth.Public(), cert); err != nil {
		t.Fatal(err)
	}
	a.SetGolden("sw1", "firewall_v5.p4", evidence.DetailProgram, rot.Sum([]byte("prog-bytes")))
	res, _ := a.Appraise("sw1", goodEvidence(r, []byte("aik")), []byte("aik"))
	if !res.Verdict {
		t.Fatalf("AIK-registered evidence rejected: %s", res.Reason)
	}
	// A cert from the wrong authority is refused.
	other := rot.NewDeterministicAuthority("evil", []byte("other"))
	if err := a.RegisterAIK(other.Public(), cert); err == nil {
		t.Fatal("wrong authority accepted")
	}
}

func TestHandlerAppraiseAndRetrieve(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	h := a.Handler()

	nonce := []byte("h1")
	resp := h(&rats.Message{
		Type: rats.MsgAppraise, Session: 1, Nonce: nonce,
		Claims: []string{"sw1"},
		Body:   evidence.Encode(goodEvidence(r, nonce)),
	})
	if resp.Type != rats.MsgResult {
		t.Fatalf("appraise resp: %+v", resp)
	}
	cert, err := DecodeCertificate(resp.Body)
	if err != nil || !cert.Verdict {
		t.Fatalf("cert: %+v %v", cert, err)
	}

	// Out-of-band retrieval by nonce (the RP2 flow of expression (3)).
	resp = h(&rats.Message{Type: rats.MsgRetrieve, Session: 2, Nonce: nonce})
	if resp.Type != rats.MsgResult {
		t.Fatalf("retrieve resp: %+v", resp)
	}
	cert2, _ := DecodeCertificate(resp.Body)
	if cert2.Serial != cert.Serial {
		t.Fatal("retrieved different certificate")
	}

	// Unknown nonce.
	resp = h(&rats.Message{Type: rats.MsgRetrieve, Nonce: []byte("nope")})
	if resp.Type != rats.MsgError {
		t.Fatal("unknown nonce retrieval succeeded")
	}
	// Garbage evidence body.
	resp = h(&rats.Message{Type: rats.MsgAppraise, Body: []byte("junk")})
	if resp.Type != rats.MsgError {
		t.Fatal("garbage appraised")
	}
	// Unsupported type.
	resp = h(&rats.Message{Type: rats.MsgChallenge})
	if resp.Type != rats.MsgError {
		t.Fatal("challenge serviced by appraiser")
	}
	// Replay through the handler surfaces as an error message.
	resp = h(&rats.Message{
		Type: rats.MsgAppraise, Nonce: nonce, Body: evidence.Encode(goodEvidence(r, nonce)),
	})
	if resp.Type != rats.MsgError {
		t.Fatal("handler allowed nonce replay")
	}
}

func TestVerifyCertificateBadKey(t *testing.T) {
	if err := VerifyCertificate(nil, &Certificate{}); err == nil {
		t.Fatal("nil key accepted")
	}
}

func TestAllowHashGatesCollapsedEvidence(t *testing.T) {
	r := attesterRoT()
	a := New("Appraiser", []byte("seed"))
	a.RegisterKey("sw1", r.Public())

	inner := evidence.Measurement("attest", "prog", "sw1", evidence.DetailProgram,
		rot.Sum([]byte("claims")), nil)
	good := evidence.Sign(r, evidence.Hash(inner))

	// Without provisioning, hashes are opaque and pass (permissive mode).
	cert, _ := a.Appraise("sw1", good, []byte("h1"))
	if !cert.Verdict {
		t.Fatalf("opaque hash rejected in permissive mode: %s", cert.Reason)
	}
	// Strict mode without provisioning refuses collapsed evidence.
	a.Strict = true
	cert, _ = a.Appraise("sw1", good, []byte("h2"))
	if cert.Verdict {
		t.Fatal("strict mode accepted unprovisioned hash")
	}
	a.Strict = false

	// With the expected digest provisioned, the honest hash passes...
	a.AllowHash(evidence.DigestOf(inner))
	cert, _ = a.Appraise("sw1", good, []byte("h3"))
	if !cert.Verdict {
		t.Fatalf("expected hash rejected: %s", cert.Reason)
	}
	// ...and any other digest fails.
	other := evidence.Sign(r, evidence.Hash(evidence.Measurement("attest", "rogue", "sw1",
		evidence.DetailProgram, rot.Sum([]byte("rogue")), nil)))
	cert, _ = a.Appraise("sw1", other, []byte("h4"))
	if cert.Verdict {
		t.Fatal("foreign hash accepted")
	}
}

func TestHardwareQuoteVerification(t *testing.T) {
	r := attesterRoT()
	a := New("Appraiser", []byte("hwq"))
	a.RegisterKey("sw1", r.Public())
	r.ExtendData(0, []byte("asic"), "hw")
	pcr0, _ := r.PCR(0)
	a.SetGolden("sw1", "hardware", evidence.DetailHardware, pcr0)

	q, _ := r.Quote(nil, 0, 4)
	hw := evidence.Measurement("sw1", "hardware", "sw1", evidence.DetailHardware,
		pcr0, rot.EncodeQuote(q))
	good := evidence.Sign(r, hw)
	cert, _ := a.Appraise("sw1", good, []byte("q1"))
	if !cert.Verdict {
		t.Fatalf("quoted hardware claim rejected: %s", cert.Reason)
	}

	// A quote speaking for a different platform is refused.
	other := rot.NewDeterministic("sw9", []byte("other"))
	a.RegisterKey("sw9", other.Public())
	oq, _ := other.Quote(nil, 0, 4)
	imposter := evidence.Sign(r, evidence.Measurement("sw1", "hardware", "sw1",
		evidence.DetailHardware, pcr0, rot.EncodeQuote(oq)))
	cert, _ = a.Appraise("sw1", imposter, []byte("q2"))
	if cert.Verdict {
		t.Fatal("foreign quote accepted")
	}

	// Garbage quote bytes are refused.
	garbled := evidence.Sign(r, evidence.Measurement("sw1", "hardware", "sw1",
		evidence.DetailHardware, pcr0, []byte("not-a-quote")))
	cert, _ = a.Appraise("sw1", garbled, []byte("q3"))
	if cert.Verdict {
		t.Fatal("garbled quote accepted")
	}
}
