// Package appraiser implements the Appraiser/Verifier role of the
// paper's Fig. 1: it verifies evidence signatures against registered
// attestation keys, checks measurement values against golden references,
// enforces nonce freshness, and issues signed attestation-result
// certificates. It also provides the certificate store used by the
// out-of-band PERA variant (expression (3)'s store(n)/retrieve(n)).
package appraiser

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// Errors from appraisal.
var (
	ErrNonceReplayed  = errors.New("appraiser: nonce already used")
	ErrNonceMissing   = errors.New("appraiser: evidence lacks the session nonce")
	ErrNoCertificate  = errors.New("appraiser: no stored certificate for nonce")
	ErrBadCertificate = errors.New("appraiser: certificate signature invalid")
)

// Certificate is a signed attestation result.
type Certificate struct {
	Issuer         string
	Subject        string
	Nonce          []byte
	EvidenceDigest rot.Digest
	Verdict        bool
	Reason         string
	Serial         uint64
	Signature      []byte
	// Batch is nil for a certificate signed on its own. A pool worker
	// that certifies several results at once sets it: Signature then
	// signs the batch's Merkle root, and Batch proves this certificate
	// is one of its leaves (see batch.go).
	Batch *BatchProof
}

// certMagic opens the message a single certificate's signature signs and
// its wire form; batchWireMagic opens a batched certificate's wire form.
const (
	certMagic      = "PERA-RESULT-V1\x00"
	batchWireMagic = "PERA-RESULT-BATCHED-V1\x00"
)

// certMessage is what a single certificate's signature signs: the magic
// and the certified fields.
func certMessage(c *Certificate) []byte {
	// One exact-size allocation; Encode appends the signature LV after,
	// so leave room for it too.
	b := make([]byte, 0, len(certMagic)+certFieldsSize(c)+4+len(c.Signature))
	return appendCertFields(append(b, certMagic...), c)
}

func certFieldsSize(c *Certificate) int {
	return 4 + len(c.Issuer) + 4 + len(c.Subject) + 4 + len(c.Nonce) +
		rot.DigestSize + 1 + 4 + len(c.Reason) + 8
}

// appendCertFields appends the certified fields: everything a signature
// covers after the magic.
func appendCertFields(b []byte, c *Certificate) []byte {
	b = appendLV(b, []byte(c.Issuer))
	b = appendLV(b, []byte(c.Subject))
	b = appendLV(b, c.Nonce)
	b = append(b, c.EvidenceDigest[:]...)
	if c.Verdict {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendLV(b, []byte(c.Reason))
	return binary.BigEndian.AppendUint64(b, c.Serial)
}

func appendLV(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Encode serializes the certificate (including signature) for transport.
// A single certificate is its signed message followed by the signature.
// A batched one opens with batchWireMagic, and its proof (u32 index, u32
// size, a path-length byte and the path digests) sits between the
// certified fields and the signature.
func (c *Certificate) Encode() []byte {
	p := c.Batch
	if p == nil {
		return appendLV(certMessage(c), c.Signature)
	}
	b := make([]byte, 0, len(batchWireMagic)+certFieldsSize(c)+9+
		len(p.Path)*rot.DigestSize+4+len(c.Signature))
	b = appendCertFields(append(b, batchWireMagic...), c)
	b = binary.BigEndian.AppendUint32(b, p.Index)
	b = binary.BigEndian.AppendUint32(b, p.Size)
	b = append(b, byte(len(p.Path)))
	for i := range p.Path {
		b = append(b, p.Path[i][:]...)
	}
	return appendLV(b, c.Signature)
}

// certReader walks a certificate's wire form; the first short read sets
// err and every later read returns nil.
type certReader struct {
	data []byte
	off  int
	err  error
}

func (r *certReader) next(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("%w: truncated %s", ErrBadCertificate, what)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *certReader) lv(what string) []byte {
	n := r.next(4, what)
	if n == nil {
		return nil
	}
	return r.next(int(binary.BigEndian.Uint32(n)), what)
}

// span is a field's byte range in the certificate's wire form.
type span struct{ lo, hi int }

// lvSpan reads a length-prefixed field like lv and returns its range.
func (r *certReader) lvSpan(what string) span {
	v := r.lv(what)
	return span{r.off - len(v), r.off}
}

// DecodeCertificate parses a certificate from either wire form. Both are
// canonical: a verdict byte other than 0 or 1, a batch proof that does
// not fit RFC 9162 (a size below 2, an index outside it, a path of the
// wrong length) or any byte after the signature field is rejected, so
// one certificate has one encoding.
func DecodeCertificate(data []byte) (*Certificate, error) {
	r := certReader{data: data}
	batched := false
	switch {
	case bytes.HasPrefix(data, []byte(certMagic)):
		r.off = len(certMagic)
	case bytes.HasPrefix(data, []byte(batchWireMagic)):
		r.off, batched = len(batchWireMagic), true
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadCertificate)
	}
	c := &Certificate{}
	issuer := r.lvSpan("field")
	subject := r.lvSpan("field")
	nonce := r.lv("field")
	copy(c.EvidenceDigest[:], r.next(rot.DigestSize, "digest"))
	if v := r.next(1, "verdict"); v != nil {
		if v[0] > 1 {
			return nil, fmt.Errorf("%w: verdict byte %d", ErrBadCertificate, v[0])
		}
		c.Verdict = v[0] == 1
	}
	reason := r.lvSpan("field")
	if s := r.next(8, "serial"); s != nil {
		c.Serial = binary.BigEndian.Uint64(s)
	}
	if batched {
		c.Batch = r.proof()
	}
	sig := r.lv("signature")
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadCertificate)
	}
	// Copy each byte of the input at most once: the text fields are
	// substrings of one string, the nonce and signature share one slab.
	text := string(data[issuer.lo:reason.hi])
	sub := func(f span) string { return text[f.lo-issuer.lo : f.hi-issuer.lo] }
	c.Issuer, c.Subject, c.Reason = sub(issuer), sub(subject), sub(reason)
	if n := len(nonce) + len(sig); n > 0 {
		slab := append(append(make([]byte, 0, n), nonce...), sig...)
		if len(nonce) > 0 {
			c.Nonce = slab[:len(nonce):len(nonce)]
		}
		if len(sig) > 0 {
			c.Signature = slab[len(nonce):]
		}
	}
	return c, nil
}

// proof reads a batched certificate's proof, setting err when it does not
// fit RFC 9162.
func (r *certReader) proof() *BatchProof {
	head := r.next(9, "batch proof")
	if head == nil {
		return nil
	}
	p := &BatchProof{
		Index: binary.BigEndian.Uint32(head),
		Size:  binary.BigEndian.Uint32(head[4:]),
	}
	if p.Size < 2 || p.Index >= p.Size || int(head[8]) != pathLen(p.Index, p.Size) {
		r.err = fmt.Errorf("%w: batch proof %d/%d with a %d-digest path",
			ErrBadCertificate, p.Index, p.Size, head[8])
		return nil
	}
	path := r.next(int(head[8])*rot.DigestSize, "batch path")
	p.Path = make([]rot.Digest, len(path)/rot.DigestSize)
	for i := range p.Path {
		copy(p.Path[i][:], path[i*rot.DigestSize:])
	}
	return p
}

// VerifyCertificate checks the certificate's signature under the issuing
// appraiser's public key. A batched certificate verifies on its own: its
// leaf and audit path must rebuild the root its signature signs.
func VerifyCertificate(pub ed25519.PublicKey, c *Certificate) error {
	if len(pub) != ed25519.PublicKeySize {
		return ErrBadCertificate
	}
	var msg []byte
	if p := c.Batch; p != nil {
		leaf, scratch := leafHash(nil, c)
		root, ok := rootFromPath(leaf, p)
		if !ok {
			return ErrBadCertificate
		}
		msg = appendBatchMessage(scratch[:0], p.Size, root)
	} else {
		msg = certMessage(c)
	}
	if !ed25519.Verify(pub, msg, c.Signature) {
		return ErrBadCertificate
	}
	return nil
}

// goldenKey identifies one reference measurement.
type goldenKey struct {
	place  string
	target string
	detail evidence.Detail
}

// Appraiser holds verification keys, golden values, issued certificates
// and nonce state. It is safe for true concurrent use: appraisal workers
// read the key/golden/hash tables as immutable copy-on-write snapshots
// (writers replace whole maps under mu, so the per-packet read path takes
// one brief RLock and never copies), the nonce store and certificate
// store sit behind their own mutexes, and the certificate serial is
// atomic so signing happens outside every lock.
type Appraiser struct {
	name string
	key  ed25519.PrivateKey
	pub  ed25519.PublicKey

	// mu guards the copy-on-write configuration tables below. Writers
	// clone-and-swap; readers snapshot the map references under RLock and
	// then read lock-free (the maps themselves are never mutated in
	// place).
	mu     sync.RWMutex
	keys   evidence.KeyMap
	golden map[goldenKey]rot.Digest
	hashes map[rot.Digest]bool // expected digests for hash-collapsed evidence
	// Strict makes measurements with no golden reference a failure;
	// otherwise they are accepted but noted in the certificate reason.
	Strict bool
	// RequireNonce makes appraisal fail when the session nonce does not
	// appear in the evidence (freshness binding).
	RequireNonce bool

	// memo caches signature- and quote-verification outcomes, so
	// re-presented high-inertia evidence costs one hash per signature
	// node instead of one ed25519.Verify. Every appraiser has one, bounded
	// to evidence.DefaultMemoCapacity entries; EnableMemo re-bounds it.
	memo *evidence.VerifyMemo

	// planes carries the observability planes the appraise and verify
	// stages report to: the appraise- and verify-latency histograms
	// (Instrument), the flow tracer, and the appraise envelope's sinks —
	// the audit ledger's appraise/verdict records and every verdict
	// reader (Subscribe). The signature/quote walk is its own verify
	// stage, so stage-attributed CPU separates the relying party's two
	// halves.
	planes telemetry.Planes

	// aud, when attached, receives the policy binding and the memo's
	// records. policyName/policyTerm name the Copland policy in force so
	// every verdict is attributable to a written-down term, not just "the
	// code". All three live behind mu with the copy-on-write tables.
	aud        *auditlog.Writer
	policyName string
	policyTerm string

	serial atomic.Uint64

	nonceMu sync.Mutex
	used    map[string]bool

	certMu   sync.Mutex
	certs    map[string]*Certificate
	certRing []string // certs' nonces in store order, maxCerts at most
	certPos  int      // the oldest slot of a full certRing
}

// maxCerts bounds the certificate store: Store keeps the newest maxCerts
// certificates and forgets the oldest, as the memo bounds its entries. A
// relying party retrieves a certificate within its round, long before
// thousands of later rounds displace it.
const maxCerts = 4096

// New creates an appraiser with a key derived from seed, so simulations
// are reproducible. Production callers should seed with fresh entropy.
func New(name string, seed []byte) *Appraiser {
	h := rot.Sum(append([]byte("appraiser:"), seed...))
	priv := ed25519.NewKeyFromSeed(h[:])
	a := &Appraiser{
		name:   name,
		key:    priv,
		pub:    priv.Public().(ed25519.PublicKey),
		keys:   evidence.KeyMap{},
		golden: make(map[goldenKey]rot.Digest),
		used:   make(map[string]bool),
		certs:  make(map[string]*Certificate),
		memo:   evidence.NewVerifyMemo(0),
	}
	a.planes.Init(name, telemetry.StageVerify, telemetry.StageAppraise)
	return a
}

// EnableMemo empties the verification memo and bounds it to capacity
// entries (capacity <= 0 selects evidence.DefaultMemoCapacity), its
// counters zeroed. The memo is emptied in place, so a registry the
// appraiser was instrumented into keeps reading it.
func (a *Appraiser) EnableMemo(capacity int) { a.memo.Reset(capacity) }

// MemoStats reports the verification memo's counters.
func (a *Appraiser) MemoStats() evidence.MemoStats { return a.memo.Stats() }

// Instrument registers the appraiser's latency histograms, labelled with
// its name, with reg: pera_appraise_seconds times each appraise envelope
// (pooled or not) and pera_verify_seconds its signature walk. The memo's
// counters are exported too.
func (a *Appraiser) Instrument(reg *telemetry.Registry) {
	appraise := telemetry.NewHistogram("pera_appraise_seconds", nil, telemetry.L("appraiser", a.name))
	verify := telemetry.NewHistogram("pera_verify_seconds", nil, telemetry.L("appraiser", a.name))
	reg.Register(appraise)
	reg.Register(verify)
	a.planes.SetHistogram(appraise, telemetry.StageAppraise)
	a.planes.SetHistogram(verify, telemetry.StageVerify, telemetry.StageVerifyFail)
	a.memo.Instrument(reg)
}

// SetAudit attaches the durable audit ledger: every appraisal emits an
// appraise record when it starts and a verdict record carrying clause
// provenance when it completes. A nil writer detaches.
func (a *Appraiser) SetAudit(w *auditlog.Writer) {
	a.mu.Lock()
	old := a.aud
	a.aud = w
	a.memo.SetAudit(w)
	a.mu.Unlock()
	if old != nil {
		a.planes.Subscribe(old)
	}
	if w != nil {
		a.Subscribe(w)
	}
}

// Subscribe feeds s the appraise envelope of every appraisal, after the
// sinks subscribed before it: StageOpened when it starts, StageEnded
// with the verdict and its provenance (Prov.Place names the switch
// whose claim decided a rejection) when it completes. An appraisal that
// failed operationally, such as a nonce replay, ends with Err set.
func (a *Appraiser) Subscribe(s telemetry.StageSink) {
	a.planes.Subscribe(s, telemetry.StageAppraise)
}

// SetPolicy binds the appraiser to a named Copland policy term (AP1–AP3
// from nac.Table1, or an operator policy). The name is stamped on every
// subsequent verdict's provenance, and the binding itself is recorded on
// the ledger so an auditor can see which policy governed which span of
// the trail.
func (a *Appraiser) SetPolicy(name, term string) {
	a.mu.Lock()
	a.policyName, a.policyTerm = name, term
	aud := a.aud
	a.mu.Unlock()
	if aud != nil {
		aud.Emit(auditlog.Record{
			Event: auditlog.EventPolicyBound, Place: a.name,
			Policy: name, Note: term,
		})
	}
}

// policy snapshots the name of the policy term in force.
func (a *Appraiser) policy() string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.policyName
}

// SetTracer attaches the distributed-tracing span recorder: appraise,
// verify and verdict spans for sampled flows, parented under the
// requester's propagated context. A Pool's appraisals are the
// appraiser's own, so they are traced here too, their notes naming the
// worker. Nil detaches.
func (a *Appraiser) SetTracer(tr *telemetry.FlowTracer) {
	a.planes.SetTracer(tr)
}

// Name returns the appraiser identity.
func (a *Appraiser) Name() string { return a.name }

// Public returns the key relying parties use to verify certificates.
func (a *Appraiser) Public() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), a.pub...)
}

// RegisterKey trusts pub to sign evidence as signer — typically from a
// verified AIK certificate.
func (a *Appraiser) RegisterKey(signer string, pub ed25519.PublicKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make(evidence.KeyMap, len(a.keys)+1)
	for k, v := range a.keys {
		keys[k] = v
	}
	keys[signer] = append(ed25519.PublicKey(nil), pub...)
	a.keys = keys
}

// RegisterAIK verifies cert under the authority key and, on success,
// trusts the contained AIK for the platform.
func (a *Appraiser) RegisterAIK(authorityPub ed25519.PublicKey, cert *rot.AIKCertificate) error {
	if err := rot.VerifyCertificate(authorityPub, cert); err != nil {
		return err
	}
	a.RegisterKey(cert.Platform, cert.AIK)
	return nil
}

// SetGolden installs the reference digest for (place, target, detail).
func (a *Appraiser) SetGolden(place, target string, detail evidence.Detail, d rot.Digest) {
	a.mu.Lock()
	defer a.mu.Unlock()
	golden := make(map[goldenKey]rot.Digest, len(a.golden)+1)
	for k, v := range a.golden {
		golden[k] = v
	}
	golden[goldenKey{place, target, detail}] = d
	a.golden = golden
}

// GoldenRef is one reference digest for SetGoldenBatch.
type GoldenRef struct {
	Place  string
	Target string
	Detail evidence.Detail
	Value  rot.Digest
}

// SetGoldenBatch registers many golden references with a single copy of
// the published table. SetGolden's copy-on-write is per call, which makes
// provisioning loops quadratic; batch installation is one copy total.
func (a *Appraiser) SetGoldenBatch(refs []GoldenRef) {
	if len(refs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	golden := make(map[goldenKey]rot.Digest, len(a.golden)+len(refs))
	for k, v := range a.golden {
		golden[k] = v
	}
	for _, r := range refs {
		golden[goldenKey{r.Place, r.Target, r.Detail}] = r.Value
	}
	a.golden = golden
}

// AllowHash registers an expected evidence digest for attesters that
// collapse their measurements with # before signing (expression (3)'s
// `attest(...) -> # -> !`). Once any digest is registered, every hash
// node in appraised evidence must match a registered digest.
func (a *Appraiser) AllowHash(d rot.Digest) {
	a.mu.Lock()
	defer a.mu.Unlock()
	hashes := make(map[rot.Digest]bool, len(a.hashes)+1)
	for k := range a.hashes {
		hashes[k] = true
	}
	hashes[d] = true
	a.hashes = hashes
}

// Appraise verifies ev end to end and issues a signed certificate whose
// Verdict reflects the outcome. A non-nil error is returned only for
// operational failures (nonce replay); verification failures are reported
// through the certificate so they remain attributable and storable.
func (a *Appraiser) Appraise(subject string, ev *evidence.Evidence, nonce []byte) (*Certificate, error) {
	return a.AppraiseCtx(telemetry.SpanContext{}, subject, ev, nonce)
}

// AppraiseCtx is Appraise with a propagated trace context: the
// appraisal spans parent under the requester's span (carried in the
// rats trace-context field), joining the challenge's cross-process
// trace.
func (a *Appraiser) AppraiseCtx(parent telemetry.SpanContext, subject string, ev *evidence.Evidence, nonce []byte) (*Certificate, error) {
	var d decision
	a.decide(&d, parent, subject, ev, nonce, "")
	return a.single(&d)
}

// single signs d's certificate on its own and closes its envelope.
func (a *Appraiser) single(d *decision) (*Certificate, error) {
	if d.cert != nil {
		a.sign(d.cert)
	}
	d.rec.Close(d.stage)
	return d.cert, d.err
}

// decision is one appraisal decided and not yet certified: its open
// appraise envelope, its certificate with every field but the signature
// (nil after an operational error), and whether deciding it ran a new
// Ed25519 verification.
type decision struct {
	rec   telemetry.StageRecorder
	stage telemetry.StageEvent
	cert  *Certificate
	err   error
	fresh bool
}

// encPool recycles the scratch a tree is encoded into for appraisal.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

// decide appraises a tree: it validates ev, encodes it once into pooled
// scratch and decides the encoding (decideEncoded). A tree that is not
// well formed still gets a certificate, failed at the structure stage,
// over the digest of its encoding.
func (a *Appraiser) decide(d *decision, parent telemetry.SpanContext, subject string, ev *evidence.Evidence, nonce []byte, note string) {
	bp := encPool.Get().(*[]byte)
	*bp = evidence.AppendEncode((*bp)[:0], ev)
	a.decideEncoded(d, parent, subject, *bp, evidence.Validate(ev), nonce, note)
	encPool.Put(bp)
}

// decideEncoded runs an appraisal of the canonical encoding enc up to
// its signature: it opens the appraise envelope, refuses a replayed
// nonce, runs check (or fails at the structure stage with malformed, the
// tree's validation error) and fills in the certificate, serial
// included. note (e.g. "worker 3") is stamped on the audit records. The
// envelope stays open until the certificate is signed, so the sinks see
// each appraisal start and end once, its verdict with the signers it
// verified, and the tracer records its span and a verdict child. Nothing
// decided retains enc.
func (a *Appraiser) decideEncoded(d *decision, parent telemetry.SpanContext, subject string, enc []byte, malformed error, nonce []byte, note string) {
	*d = decision{rec: a.planes.Recorder()}
	flow, nonceHex := "", ""
	if d.rec.Detailed() {
		// The flow ID is the hex of the session nonce or, without one,
		// of the chain's first nonce — the ID a switch gives the chain
		// in-band: built only for a sink or a sampled flow, never just
		// for the tracer to decide it is not sampled.
		id := nonce
		if len(id) == 0 {
			_, id, _ = evidence.Scan(enc) // evidence.FirstNonce over the bytes
		}
		if d.rec.WantsFlow(id) {
			flow = rats.FlowID(id)
			if len(nonce) > 0 {
				nonceHex = flow // the flow ID is the nonce hex when there is one
			}
		}
	}
	d.stage = telemetry.StageEvent{
		Stage: telemetry.StageAppraise, Flow: flow, Parent: parent,
		Target: subject, Nonce: nonceHex, Policy: a.policy(), Note: note,
	}
	d.rec.Open(d.stage)
	if len(nonce) > 0 {
		a.nonceMu.Lock()
		replayed := a.used[string(nonce)]
		a.used[string(nonce)] = true
		a.nonceMu.Unlock()
		if replayed {
			d.err = ErrNonceReplayed
			d.stage.Verdict, d.stage.Err = "FAIL", ErrNonceReplayed.Error()
			d.stage.Prov = telemetry.Provenance{
				Policy: d.stage.Policy, Clause: clauseNonce, Stage: "nonce",
				Reason: ErrNonceReplayed.Error(),
			}
			return
		}
	}
	verdict, reason, prov := false, "", auditlog.Provenance{}
	if malformed != nil {
		reason = malformed.Error()
		prov = reject("structure", clauseStructure, reason)
	} else {
		verdict, reason, prov = a.check(d, enc, nonce)
	}
	d.cert = &Certificate{
		Issuer:         a.name,
		Subject:        subject,
		Nonce:          append([]byte(nil), nonce...),
		EvidenceDigest: sha256.Sum256(enc), // the tree's DigestOf: the encoding is canonical
		Verdict:        verdict,
		Reason:         reason,
		Serial:         a.serial.Add(1),
	}
	d.stage.Verdict = verdictString(verdict)
	d.stage.Prov = prov
	d.stage.Prov.Policy = d.stage.Policy
}

// sign certifies c on its own. Signing happens outside every lock:
// concurrent appraisal workers must not serialize their Ed25519 work
// behind shared state.
func (a *Appraiser) sign(c *Certificate) {
	c.Signature = ed25519.Sign(a.key, certMessage(c))
}

// verdictString renders a verdict the way records and spans carry it.
func verdictString(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// Clause fragments of the Copland policy terms (nac.Table1) that each
// appraisal stage enforces — the provenance a verdict record carries.
// Rejecting a chain at the signature stage is rejecting the `!` (sign)
// phrase of `@hop [Khop |> attest(n) X -> !]`; a golden-value mismatch
// is the measurement claim `attest(n) X` failing the appraiser's golden
// comparison (same phrase as the structure check, distinguished by the
// provenance stage); and so on.
const (
	clauseStructure = "attest(n) X"
	clauseSignature = "@hop [Khop |> attest(n) X -> !]"
	clauseNonce     = "*bank<n, X>"
	clauseHash      = "attest(n) X -> # -> !"
	clauseQuote     = "Khop |> attest(n) hardware -> !"
	clauseGolden    = "attest(n) X"
	clauseAppraise  = "@Appraiser [appraise -> store(n)]"
)

// reject builds the provenance for a failed stage.
func reject(stage, clause, reason string) auditlog.Provenance {
	return auditlog.Provenance{Clause: clause, Stage: stage, Accept: false, Reason: reason}
}

// rejectAt is reject with the deciding place stamped on — golden and
// quote failures always name the switch whose claim mismatched, which is
// what lets a collector localize a compromise instead of reporting
// "path failed".
func rejectAt(stage, clause, place, reason string) auditlog.Provenance {
	p := reject(stage, clause, reason)
	p.Place = place
	return p
}

// check runs the verification pipeline over the canonical encoding enc
// and renders a verdict together with the provenance naming the exact
// policy clause that decided. Every read is of the bytes as they were
// received: the signatures over the exact ranges their signers signed,
// then the nonce, the hash commitments, and the measurements with their
// quotes. The signature walk is reported on d's recorder as the
// appraisal's verify stage; once it passes, and a sink reads the
// envelope, d's stage names the signers it verified — the places the
// verdict covers. d.fresh records whether any signature or quote needed
// a full Ed25519 verification: one the memo could not answer.
func (a *Appraiser) check(d *decision, enc, nonce []byte) (bool, string, auditlog.Provenance) {
	// Snapshot the copy-on-write tables: the referenced maps are immutable
	// once published, so the verification work below runs lock-free.
	a.mu.RLock()
	keys, golden, hashes := a.keys, a.golden, a.hashes
	strict, requireNonce := a.Strict, a.RequireNonce
	a.mu.RUnlock()

	m := d.rec.Begin(telemetry.StageVerify)
	var signers *[]string
	if d.rec.Feeds(telemetry.StageAppraise) {
		signers = &d.stage.Signers
	}
	nsigs, full, err := a.memo.VerifyEncoded(enc, keys, signers)
	d.fresh = full > 0
	if err != nil {
		d.rec.End(m, telemetry.StageEvent{Stage: telemetry.StageVerifyFail, Note: err.Error()})
		return false, err.Error(), reject("signature", clauseSignature, err.Error())
	}
	d.rec.End(m, telemetry.StageEvent{})
	var n evidence.Node
	if requireNonce && len(nonce) > 0 {
		found := false
		for c := evidence.NewCursor(enc); !found && c.Next(&n); {
			found = n.Kind == evidence.KindNonce && bytes.Equal(n.Nonce, nonce)
		}
		if !found {
			return false, ErrNonceMissing.Error(), reject("nonce", clauseNonce, ErrNonceMissing.Error())
		}
	}
	if len(hashes) > 0 || strict {
		for c := evidence.NewCursor(enc); c.Next(&n); {
			switch {
			case n.Kind != evidence.KindHash:
			case len(hashes) == 0:
				reason := "hash-collapsed evidence with no expected digests provisioned"
				return false, reason, reject("hash", clauseHash, reason)
			case !hashes[n.Digest]:
				reason := fmt.Sprintf("unrecognized evidence digest %v", n.Digest)
				return false, reason, reject("hash", clauseHash, reason)
			}
		}
	}
	unknown, total := 0, 0
	for c := evidence.NewCursor(enc); c.Next(&n); {
		if n.Kind != evidence.KindMeasurement {
			continue
		}
		total++
		place, target := evidence.Name(n.Place), evidence.Name(n.Target)
		// Hardware claims carrying a serialized quote get the deeper
		// check: the quote must verify under the platform's AIK and
		// speak for the place that presented it.
		if n.Detail == evidence.DetailHardware && len(n.Claims) > 0 {
			if reason := a.checkQuote(d, keys, place, n.Claims); reason != "" {
				return false, reason, rejectAt("quote", clauseQuote, place, reason)
			}
		}
		want, ok := golden[goldenKey{place, target, n.Detail}]
		if !ok {
			unknown++
			if strict {
				reason := fmt.Sprintf("no golden value for %s/%s (%s)", place, target, n.Detail)
				return false, reason, rejectAt("golden", clauseGolden, place, reason)
			}
			continue
		}
		if want != n.Value {
			reason := fmt.Sprintf("measurement mismatch: %s/%s (%s) got %v want %v",
				place, target, n.Detail, n.Value, want)
			return false, reason, rejectAt("golden", clauseGolden, place, reason)
		}
	}
	reason := okReason(nsigs, total, unknown)
	return true, reason, auditlog.Provenance{
		Clause: clauseAppraise, Stage: "accept", Accept: true, Reason: reason,
	}
}

// checkQuote checks the serialized quote a hardware claim presented at
// place carries and returns why it fails, or "" when it verifies. Quote
// checks ride the same memo as evidence signatures: a cached hardware
// quote re-presented across rounds is byte-identical, so the serialized
// claim bytes key the memoized verdict. The quote is read in place; only
// a memo miss copies it out to verify it.
func (a *Appraiser) checkQuote(d *decision, keys evidence.KeyMap, place string, claims []byte) string {
	w, err := rot.ReadQuote(claims)
	if err != nil {
		return fmt.Sprintf("hardware claim at %s: %v", place, err)
	}
	if string(w.Platform) != place {
		return fmt.Sprintf("hardware quote speaks for %q but was presented by %q", w.Platform, place)
	}
	pub, ok := keys.KeyFor(place)
	if !ok {
		return fmt.Sprintf("no key to verify hardware quote from %q", place)
	}
	if !a.memo.Check(pub, claims, w.Signature, func() bool {
		d.fresh = true
		return rot.VerifyQuote(pub, w.Quote(), nil) == nil
	}) {
		return fmt.Sprintf("hardware quote from %s: verification failed", place)
	}
	return ""
}

// okReason renders the acceptance reason without fmt (two Sprintf calls
// per certificate showed up in the allocation profile).
func okReason(nsigs, measurements, unknown int) string {
	b := make([]byte, 0, 64)
	b = append(b, "ok: "...)
	b = strconv.AppendInt(b, int64(nsigs), 10)
	b = append(b, " signatures, "...)
	b = strconv.AppendInt(b, int64(measurements), 10)
	b = append(b, " measurements"...)
	if unknown > 0 {
		b = append(b, ", "...)
		b = strconv.AppendInt(b, int64(unknown), 10)
		b = append(b, " unreferenced"...)
	}
	return string(b)
}

// Store saves a certificate for later retrieval by nonce — the
// out-of-band variant's store(n). The store keeps the newest maxCerts
// certificates: storing one more forgets the oldest. A certificate
// stored again under a nonce already held replaces it in place.
func (a *Appraiser) Store(c *Certificate) {
	a.certMu.Lock()
	defer a.certMu.Unlock()
	key := string(c.Nonce)
	if _, ok := a.certs[key]; !ok {
		if len(a.certRing) < maxCerts {
			a.certRing = append(a.certRing, key)
		} else {
			delete(a.certs, a.certRing[a.certPos])
			a.certRing[a.certPos] = key
			a.certPos = (a.certPos + 1) % maxCerts
		}
	}
	a.certs[key] = c
}

// Retrieve returns the certificate stored under nonce — retrieve(n). A
// certificate older than the newest maxCerts answers ErrNoCertificate.
func (a *Appraiser) Retrieve(nonce []byte) (*Certificate, error) {
	a.certMu.Lock()
	defer a.certMu.Unlock()
	c, ok := a.certs[string(nonce)]
	if !ok {
		return nil, ErrNoCertificate
	}
	return c, nil
}

// Handler returns a rats.Handler serving MsgAppraise (verify + certify +
// store) and MsgRetrieve (fetch stored certificate) requests. The
// request's byte fields alias its frame (rats.Decode): what the handler
// keeps past its return, the stored certificate's nonce and the replay
// set's key, decideEncoded copies.
func (a *Appraiser) Handler() rats.Handler {
	return func(req *rats.Message) *rats.Message {
		switch req.Type {
		case rats.MsgAppraise:
			// The body is the evidence's canonical encoding: once Scan
			// accepts it, it is appraised as received, never decoded.
			if _, _, err := evidence.Scan(req.Body); err != nil {
				return &rats.Message{Type: rats.MsgError, Session: req.Session, Body: []byte(err.Error())}
			}
			subject := "unknown"
			if len(req.Claims) > 0 {
				subject = req.Claims[0]
			}
			var d decision
			a.decideEncoded(&d, req.Context(), subject, req.Body, nil, req.Nonce, "")
			cert, err := a.single(&d)
			if err != nil {
				return &rats.Message{Type: rats.MsgError, Session: req.Session, Body: []byte(err.Error())}
			}
			a.Store(cert)
			return &rats.Message{Type: rats.MsgResult, Session: req.Session, Nonce: req.Nonce, Body: cert.Encode()}
		case rats.MsgRetrieve:
			cert, err := a.Retrieve(req.Nonce)
			if err != nil {
				return &rats.Message{Type: rats.MsgError, Session: req.Session, Body: []byte(err.Error())}
			}
			return &rats.Message{Type: rats.MsgResult, Session: req.Session, Nonce: req.Nonce, Body: cert.Encode()}
		default:
			return &rats.Message{Type: rats.MsgError, Session: req.Session,
				Body: []byte(fmt.Sprintf("unsupported message %v", req.Type))}
		}
	}
}
