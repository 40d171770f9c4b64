// Package appraiser implements the Appraiser/Verifier role of the
// paper's Fig. 1: it verifies evidence signatures against registered
// attestation keys, checks measurement values against golden references,
// enforces nonce freshness, and issues signed attestation-result
// certificates. It also provides the certificate store used by the
// out-of-band PERA variant (expression (3)'s store(n)/retrieve(n)).
package appraiser

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
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
}

func certMessage(c *Certificate) []byte {
	size := len("PERA-RESULT-V1\x00") + 4 + len(c.Issuer) + 4 + len(c.Subject) +
		4 + len(c.Nonce) + rot.DigestSize + 1 + 4 + len(c.Reason) + 8
	// One exact-size allocation; Encode appends the signature LV after,
	// so leave room for it too.
	b := make([]byte, 0, size+4+len(c.Signature))
	b = append(b, "PERA-RESULT-V1\x00"...)
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
	b = binary.BigEndian.AppendUint64(b, c.Serial)
	return b
}

func appendLV(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Encode serializes the certificate (including signature) for transport.
func (c *Certificate) Encode() []byte {
	b := certMessage(c)
	return appendLV(b, c.Signature)
}

// DecodeCertificate parses a certificate from its wire form.
func DecodeCertificate(data []byte) (*Certificate, error) {
	read := func(off int) ([]byte, int, error) {
		if off+4 > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated", ErrBadCertificate)
		}
		n := binary.BigEndian.Uint32(data[off:])
		off += 4
		if off+int(n) > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated field", ErrBadCertificate)
		}
		return data[off : off+int(n)], off + int(n), nil
	}
	magic := "PERA-RESULT-V1\x00"
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCertificate)
	}
	off := len(magic)
	c := &Certificate{}
	var f []byte
	var err error
	if f, off, err = read(off); err != nil {
		return nil, err
	}
	c.Issuer = string(f)
	if f, off, err = read(off); err != nil {
		return nil, err
	}
	c.Subject = string(f)
	if f, off, err = read(off); err != nil {
		return nil, err
	}
	c.Nonce = append([]byte(nil), f...)
	if off+rot.DigestSize > len(data) {
		return nil, fmt.Errorf("%w: truncated digest", ErrBadCertificate)
	}
	copy(c.EvidenceDigest[:], data[off:])
	off += rot.DigestSize
	if off >= len(data) {
		return nil, fmt.Errorf("%w: truncated verdict", ErrBadCertificate)
	}
	c.Verdict = data[off] == 1
	off++
	if f, off, err = read(off); err != nil {
		return nil, err
	}
	c.Reason = string(f)
	if off+8 > len(data) {
		return nil, fmt.Errorf("%w: truncated serial", ErrBadCertificate)
	}
	c.Serial = binary.BigEndian.Uint64(data[off:])
	off += 8
	if f, _, err = read(off); err != nil {
		return nil, err
	}
	c.Signature = append([]byte(nil), f...)
	return c, nil
}

// VerifyCertificate checks the certificate's signature under the issuing
// appraiser's public key.
func VerifyCertificate(pub ed25519.PublicKey, c *Certificate) error {
	if len(pub) != ed25519.PublicKeySize ||
		!ed25519.Verify(pub, certMessage(c), c.Signature) {
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

	// memo, when enabled, caches signature-verification outcomes so
	// re-presented high-inertia evidence costs one hash per signature
	// node instead of one ed25519.Verify. Set via EnableMemo.
	memo *evidence.VerifyMemo

	// planes carries the observability planes the appraise and verify
	// stages report to: the verify-latency histogram (Instrument), the
	// flow tracer and the audit ledger's appraise/verdict records. The
	// signature/quote walk is its own verify stage, so stage-attributed
	// CPU separates the relying party's two halves.
	planes telemetry.Planes

	// aud, when attached, receives the policy binding and the memo's
	// records. policyName/policyTerm name the Copland policy in force so
	// every verdict is attributable to a written-down term, not just "the
	// code". All three live behind mu with the copy-on-write tables.
	aud        *auditlog.Writer
	policyName string
	policyTerm string

	// obs, when attached, sees every rendered verdict with its place
	// attribution — the hook an observatory collector uses to correlate
	// appraisal outcomes with in-band path traces. Lives behind mu with
	// the other attachments.
	obs Observer

	serial atomic.Uint64

	nonceMu sync.Mutex
	used    map[string]bool

	certMu sync.Mutex
	certs  map[string]*Certificate
}

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
	}
	a.planes.Init(name, telemetry.StageVerify, telemetry.StageAppraise)
	return a
}

// EnableMemo installs a verification memo bounded to capacity entries
// (capacity <= 0 selects evidence.DefaultMemoCapacity). Subsequent
// appraisals memoize signature and quote checks; MemoStats exposes the
// hit/miss counters.
func (a *Appraiser) EnableMemo(capacity int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.memo = evidence.NewVerifyMemo(capacity)
	a.memo.SetAudit(a.aud)
}

// MemoStats reports the verification memo's counters; zeros when no memo
// is enabled.
func (a *Appraiser) MemoStats() evidence.MemoStats {
	a.mu.RLock()
	m := a.memo
	a.mu.RUnlock()
	return m.Stats()
}

// Instrument registers the appraiser's Verify-stage latency histogram
// (pera_verify_seconds, labelled with the appraiser name) with reg and
// subscribes it to the verify stage. The memo, when enabled, is
// exported too.
func (a *Appraiser) Instrument(reg *telemetry.Registry) {
	h := telemetry.NewHistogram("pera_verify_seconds", nil, telemetry.L("appraiser", a.name))
	reg.Register(h)
	a.planes.SetHistogram(h, telemetry.StageVerify, telemetry.StageVerifyFail)
	a.memoSnapshot().Instrument(reg)
}

// SetAudit attaches the durable audit ledger: every appraisal emits an
// appraise record when it starts and a verdict record carrying clause
// provenance when it completes. A nil writer detaches.
func (a *Appraiser) SetAudit(w *auditlog.Writer) {
	a.mu.Lock()
	a.aud = w
	a.memo.SetAudit(w) // nil-safe; order vs EnableMemo doesn't matter
	a.mu.Unlock()
	a.planes.SetLedger(auditlog.Sink(w), telemetry.StageAppraise)
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

// memoSnapshot returns the appraiser's persistent verification memo, or
// nil when none is enabled. Pools use it to decide whether a batch
// window seeds the durable memo or an ephemeral per-window one.
func (a *Appraiser) memoSnapshot() *evidence.VerifyMemo {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.memo
}

// keysSnapshot returns the current copy-on-write key table; the map is
// immutable once published, so callers read it lock-free.
func (a *Appraiser) keysSnapshot() evidence.KeyMap {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.keys
}

// policy snapshots the name of the policy term in force.
func (a *Appraiser) policy() string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.policyName
}

// Observer receives appraisal outcomes as they are rendered. place names
// the switch whose claim decided a rejection ("" when no single place is
// attributable — e.g. structural or signature failures over the whole
// chain, or a pass). Implementations must be safe for concurrent calls:
// pool workers appraise in parallel.
type Observer interface {
	ObserveVerdict(flow, subject string, verdict bool, place, stage, reason string)
}

// SetObserver attaches the verdict observer; nil detaches.
func (a *Appraiser) SetObserver(o Observer) {
	a.mu.Lock()
	a.obs = o
	a.mu.Unlock()
}

// observer snapshots the attached verdict observer.
func (a *Appraiser) observer() Observer {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.obs
}

// SetTracer attaches the distributed-tracing span recorder: appraise,
// verify and verdict spans for sampled flows, parented under the
// requester's propagated context. Deployments embedding the appraiser in
// a Pool leave this unset (the pool records the spans with worker
// attribution instead). Nil detaches.
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
	return a.AppraiseNoted(subject, ev, nonce, "")
}

// appraisalFlowID correlates appraisal-side audit records with the
// switch side: the session nonce (hex) when present, else the first
// nonce inside the evidence — the same ID pera.FlowID derives in-band.
func appraisalFlowID(ev *evidence.Evidence, nonce []byte) string {
	if len(nonce) > 0 {
		return hex.EncodeToString(nonce)
	}
	if n := evidence.FirstNonce(ev); n != nil {
		return hex.EncodeToString(n)
	}
	return "-"
}

// AppraiseNoted is Appraise with an attribution note (e.g. "worker 3")
// stamped on the audit records, so pool-dispatched appraisals remain
// attributable to the goroutine that ran them.
func (a *Appraiser) AppraiseNoted(subject string, ev *evidence.Evidence, nonce []byte, note string) (*Certificate, error) {
	return a.appraiseNoted(telemetry.SpanContext{}, subject, ev, nonce, note, nil, "")
}

// AppraiseCtx is Appraise with a propagated trace context: the
// appraisal spans parent under the requester's span (carried in the
// rats trace-context field), joining the challenge's cross-process
// trace.
func (a *Appraiser) AppraiseCtx(parent telemetry.SpanContext, subject string, ev *evidence.Evidence, nonce []byte) (*Certificate, error) {
	return a.appraiseNoted(parent, subject, ev, nonce, "", nil, "")
}

// appraiseNoted additionally threads an override verification memo (the
// pool's per-window batch memo when the appraiser has no persistent
// one; nil uses the appraiser's own) and a span link naming the shared
// batch-flush span this appraisal's signatures rode, if any. The whole
// appraisal is one appraise stage: the ledger records its start and its
// verdict, the tracer its span and a verdict child.
func (a *Appraiser) appraiseNoted(parent telemetry.SpanContext, subject string, ev *evidence.Evidence, nonce []byte, note string, memoOverride *evidence.VerifyMemo, link string) (*Certificate, error) {
	obs := a.observer()
	rec := a.planes.Recorder()
	flow, nonceHex := "", ""
	if rec.Detailed() || obs != nil {
		flow = appraisalFlowID(ev, nonce)
		if len(nonce) > 0 {
			nonceHex = flow // appraisalFlowID is the nonce hex when there is one
		}
	}
	stage := telemetry.StageEvent{
		Stage: telemetry.StageAppraise, Flow: flow, Parent: parent,
		Target: subject, Nonce: nonceHex, Policy: a.policy(), Note: note,
	}
	rec.Open(stage)
	if len(nonce) > 0 {
		a.nonceMu.Lock()
		replayed := a.used[string(nonce)]
		a.used[string(nonce)] = true
		a.nonceMu.Unlock()
		if replayed {
			stage.Verdict, stage.Err = "FAIL", ErrNonceReplayed.Error()
			stage.Prov = telemetry.Provenance{
				Policy: stage.Policy, Clause: clauseNonce, Stage: "nonce",
				Reason: ErrNonceReplayed.Error(),
			}
			rec.Close(stage)
			return nil, ErrNonceReplayed
		}
	}
	verdict, reason, prov := a.check(&rec, ev, nonce, memoOverride)
	c := &Certificate{
		Issuer:         a.name,
		Subject:        subject,
		Nonce:          append([]byte(nil), nonce...),
		EvidenceDigest: evidence.DigestOf(ev),
		Verdict:        verdict,
		Reason:         reason,
		Serial:         a.serial.Add(1),
	}
	// Signing happens outside every lock: concurrent appraisal workers
	// must not serialize their Ed25519 work behind shared state.
	c.Signature = ed25519.Sign(a.key, certMessage(c))
	if obs != nil {
		obs.ObserveVerdict(flow, subject, verdict, prov.Place, prov.Stage, reason)
	}
	stage.Verdict = verdictString(verdict)
	stage.Prov = prov
	stage.Prov.Policy = stage.Policy
	stage.Link = link
	rec.Close(stage)
	return c, nil
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

// batchVerifiers recycles chain batch verifiers across appraisals; each
// check that batches takes one, retargets it at the active memo, and
// returns it with buffers intact.
var batchVerifiers = sync.Pool{
	New: func() any { return evidence.NewBatchVerifier(nil) },
}

// check runs the verification pipeline and renders a verdict together
// with the provenance naming the exact policy clause that decided.
// memoOverride, when non-nil, replaces the appraiser's own memo for this
// appraisal — the pool's batch-window transport. The signature walk is
// reported on rec as the appraisal's verify stage.
func (a *Appraiser) check(rec *telemetry.StageRecorder, ev *evidence.Evidence, nonce []byte, memoOverride *evidence.VerifyMemo) (bool, string, auditlog.Provenance) {
	if err := evidence.Validate(ev); err != nil {
		return false, err.Error(), reject("structure", clauseStructure, err.Error())
	}
	// Snapshot the copy-on-write tables: the referenced maps are immutable
	// once published, so the verification work below runs lock-free.
	a.mu.RLock()
	keys, golden, hashes := a.keys, a.golden, a.hashes
	strict, requireNonce := a.Strict, a.RequireNonce
	memo := a.memo
	a.mu.RUnlock()
	if memoOverride != nil {
		memo = memoOverride
	}

	m := rec.Begin(telemetry.StageVerify)
	// With a memo available, front-load the chain's unverified signatures
	// through the batch equation; the memoized walk below then consumes
	// the seeded verdicts, so the rendered verdict (and error text) is
	// exactly what the per-item path produces.
	if memo != nil {
		bv := batchVerifiers.Get().(*evidence.BatchVerifier)
		bv.Reset(memo)
		if err := bv.Gather(ev, keys); err == nil {
			bv.Flush()
		} else {
			bv.Reset(memo) // drop the partial window; the walk reports the error
		}
		batchVerifiers.Put(bv)
	}
	nsigs, err := evidence.VerifySignaturesMemo(ev, keys, memo)
	if err != nil {
		rec.End(m, telemetry.StageEvent{Stage: telemetry.StageVerifyFail, Note: err.Error()})
		return false, err.Error(), reject("signature", clauseSignature, err.Error())
	}
	rec.End(m, telemetry.StageEvent{})
	if requireNonce && len(nonce) > 0 && !evidence.HasNonce(ev, nonce) {
		return false, ErrNonceMissing.Error(), reject("nonce", clauseNonce, ErrNonceMissing.Error())
	}
	if len(hashes) > 0 {
		for _, h := range evidence.Hashes(ev) {
			if !hashes[h] {
				reason := fmt.Sprintf("unrecognized evidence digest %v", h)
				return false, reason, reject("hash", clauseHash, reason)
			}
		}
	} else if strict && len(evidence.Hashes(ev)) > 0 {
		reason := "hash-collapsed evidence with no expected digests provisioned"
		return false, reason, reject("hash", clauseHash, reason)
	}
	unknown, total := 0, 0
	var failReason string
	var failProv auditlog.Provenance
	evidence.WalkMeasurements(ev, func(m *evidence.Evidence) bool {
		total++
		// Hardware claims carrying a serialized quote get the deeper
		// check: the quote must verify under the platform's AIK and
		// speak for the place that presented it.
		if m.Detail == evidence.DetailHardware && len(m.Claims) > 0 {
			q, err := rot.DecodeQuote(m.Claims)
			if err != nil {
				failReason = fmt.Sprintf("hardware claim at %s: %v", m.Place, err)
				failProv = rejectAt("quote", clauseQuote, m.Place, failReason)
				return false
			}
			if q.Platform != m.Place {
				failReason = fmt.Sprintf("hardware quote speaks for %q but was presented by %q", q.Platform, m.Place)
				failProv = rejectAt("quote", clauseQuote, m.Place, failReason)
				return false
			}
			pub, ok := keys.KeyFor(q.Platform)
			if !ok {
				failReason = fmt.Sprintf("no key to verify hardware quote from %q", q.Platform)
				failProv = rejectAt("quote", clauseQuote, m.Place, failReason)
				return false
			}
			// Quote checks ride the same memo as evidence signatures: a
			// cached hardware quote re-presented across packets is
			// byte-identical, so the serialized claim bytes key the
			// memoized verdict.
			ok = memo.Check(pub, m.Claims, q.Signature, func() bool {
				return rot.VerifyQuote(pub, q, nil) == nil
			})
			if !ok {
				failReason = fmt.Sprintf("hardware quote from %s: verification failed", q.Platform)
				failProv = rejectAt("quote", clauseQuote, m.Place, failReason)
				return false
			}
		}
		want, ok := golden[goldenKey{m.Place, m.Target, m.Detail}]
		if !ok {
			unknown++
			if strict {
				failReason = fmt.Sprintf("no golden value for %s/%s (%s)", m.Place, m.Target, m.Detail)
				failProv = rejectAt("golden", clauseGolden, m.Place, failReason)
				return false
			}
			return true
		}
		if want != m.Value {
			failReason = fmt.Sprintf("measurement mismatch: %s/%s (%s) got %v want %v",
				m.Place, m.Target, m.Detail, m.Value, want)
			failProv = rejectAt("golden", clauseGolden, m.Place, failReason)
			return false
		}
		return true
	})
	if failReason != "" {
		return false, failReason, failProv
	}
	reason := okReason(nsigs, total, unknown)
	return true, reason, auditlog.Provenance{
		Clause: clauseAppraise, Stage: "accept", Accept: true, Reason: reason,
	}
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
// out-of-band variant's store(n).
func (a *Appraiser) Store(c *Certificate) {
	a.certMu.Lock()
	defer a.certMu.Unlock()
	a.certs[string(c.Nonce)] = c
}

// Retrieve returns the certificate stored under nonce — retrieve(n).
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
// store) and MsgRetrieve (fetch stored certificate) requests.
func (a *Appraiser) Handler() rats.Handler {
	return func(req *rats.Message) *rats.Message {
		switch req.Type {
		case rats.MsgAppraise:
			ev, err := evidence.Decode(req.Body)
			if err != nil {
				return &rats.Message{Type: rats.MsgError, Session: req.Session, Body: []byte(err.Error())}
			}
			subject := "unknown"
			if len(req.Claims) > 0 {
				subject = req.Claims[0]
			}
			cert, err := a.AppraiseCtx(req.Context(), subject, ev, req.Nonce)
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
