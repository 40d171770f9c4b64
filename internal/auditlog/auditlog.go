// Package auditlog is the durable third pillar of the PERA observability
// story: an append-only, hash-chained, structured event ledger recording
// every RATS lifecycle event — claim issued, evidence created/composed/
// cached, signatures verified, appraisals started, verdicts rendered —
// as JSONL records that can be verified, queried and explained offline.
//
// The paper's UC4 ("evidence as documentation", §2) argues attestation
// results must survive as an appraisable compliance trail; Fig. 1's
// Claim → Evidence → Appraisal → Result flow only earns trust if each hop
// is reconstructable after the fact. The ledger makes the trail itself
// tamper-evident: every record carries the previous record's chain link
// and a per-record HMAC-SHA256 under a RoT-derived key, so flipping any
// byte of any record breaks the chain at exactly that record.
//
// Chain construction
//
//	link[-1] = HMAC(key, "PERA-AUDIT-GENESIS-V1")
//	body[i]  = canonical JSON of record i without its mac field
//	link[i]  = HMAC(key, link[i-1] || body[i])
//	line[i]  = body[i] with `"mac":"<hex link[i]>"` appended, '\n' terminated
//
// Verification recomputes every link from the raw line bytes (no
// re-marshalling ambiguity: the mac field is always the final JSON member
// and is split off textually), so any single-byte modification — record
// contents, the prev pointer, the mac itself, even a line separator — is
// detected at the index of the record that carries the flipped byte.
package auditlog

import (
	"crypto/hmac"
	"crypto/sha256"

	"pera/internal/telemetry"
)

// Event names one RATS lifecycle step. Events shared with the flow
// tracer use the same strings as telemetry.Stage, so an `audit explain`
// timeline and a /trace span dump line up record for record.
type Event string

// Ledger events. The first block is the stage vocabulary of the seam
// (telemetry.Stage), recorded by the stage sink below; the second block
// is ledger-only lifecycle.
const (
	EventSign        = Event(telemetry.StageSign)        // RoT/remote signature over evidence
	EventEvidence    = Event(telemetry.StageEvidence)    // claim/measurement creation (uncached)
	EventCompose     = Event(telemetry.StageCompose)     // chaining local evidence onto the header chain
	EventCacheHit    = Event(telemetry.StageCacheHit)    // high-inertia evidence served from cache
	EventCacheMiss   = Event(telemetry.StageCacheMiss)   // evidence rebuilt on cache miss
	EventVerify      = Event(telemetry.StageVerify)      // signature/quote chain verification passed
	EventVerifyFail  = Event(telemetry.StageVerifyFail)  // frame dropped for an unverifiable chain
	EventAppraise    = Event(telemetry.StageAppraise)    // appraisal of a chain started
	EventVerdict     = Event(telemetry.StageVerdict)     // appraisal outcome with provenance
	EventGuardReject = Event(telemetry.StageGuardReject) // obligation skipped by a failed ▶ test

	EventLedgerOpen  Event = "ledger_open"  // first record of every ledger
	EventLedgerClose Event = "ledger_close" // orderly shutdown marker
	EventClaimIssued Event = "claim_issued" // out-of-band challenge received (Fig. 1 step 1)
	EventMemoInsert  Event = "memo_insert"  // first full verification of a signature triple
	EventPolicyBound Event = "policy_bound" // appraiser bound to a Copland policy term
	EventPoolDrained Event = "pool_drained" // appraisal pool closed; note carries totals
	EventAction      Event = "action"       // operator remediation recorded (UC4 sub-case B)

	EventCacheExpire   Event = "cache_expire"   // evidence aged past its inertia window (reap or stale read)
	EventAlertFired    Event = "alert_fired"    // freshness watchdog alert transitioned to firing
	EventAlertResolved Event = "alert_resolved" // firing alert resolved by fresh clean evidence
	EventAlertProbe    Event = "alert_probe"    // active re-attestation probe issued for a firing alert

	EventAnomaly  Event = "anomaly_detected" // flight-recorder detector tripped on a metric series
	EventIncident Event = "incident_bundle"  // diagnostic bundle snapshotted; note carries the bundle ID

	EventProfileRegression Event = "profile_regression" // profiler baseline diff found a hot-path CPU regression
)

// Provenance names the exact Copland/NetKAT clause that accepted or
// rejected a packet: the stage seam's telemetry.Provenance, recorded on
// verdict, verify_fail and guard_reject records.
type Provenance = telemetry.Provenance

// Record is one ledger entry. Field order is the canonical JSON member
// order (encoding/json emits struct fields in declaration order); the
// writer appends the mac member last, and the verifier splits it off the
// raw line, so Record must keep MAC as its final field.
type Record struct {
	Seq   uint64 `json:"seq"`
	TS    int64  `json:"ts_ns"` // unix nanoseconds, stamped by the writer goroutine
	Event Event  `json:"event"`
	Place string `json:"place,omitempty"` // switch / appraiser the event happened at
	Flow  string `json:"flow,omitempty"`  // nonce hex or flow hash — the trace correlation ID
	Nonce string `json:"nonce,omitempty"` // session nonce (hex or printable form)

	Policy  string `json:"policy,omitempty"`  // AP1–AP3 term name in force
	Target  string `json:"target,omitempty"`  // claim target (program name, "tables", ...)
	Detail  string `json:"detail,omitempty"`  // Fig. 4 detail level
	Verdict string `json:"verdict,omitempty"` // PASS / FAIL on verdict events
	DurNS   int64  `json:"dur_ns,omitempty"`  // stage latency when timed
	Note    string `json:"note,omitempty"`

	Prov *Provenance `json:"provenance,omitempty"`

	// TraceID correlates the record with the distributed trace for its
	// flow (telemetry.TraceIDFromFlow). Stamped by the writer goroutine
	// from Flow when unset, so hot-path emitters never pay for it.
	TraceID string `json:"trace_id,omitempty"`

	Prev string `json:"prev"`          // hex of the previous record's chain link
	MAC  string `json:"mac,omitempty"` // hex of this record's chain link (appended by the writer)
}

// keyDomain separates audit-ledger HMAC keys from every other key
// derivation in the repo. rot.(*RoT).AuditKey derives with the same
// domain string so a ledger MAC'd under a switch RoT verifies against
// the key that RoT reports.
const keyDomain = "PERA-AUDIT-KEY-V1"

// genesisDomain seeds the chain before the first record.
const genesisDomain = "PERA-AUDIT-GENESIS-V1"

// DeriveKey derives a 32-byte ledger MAC key from an arbitrary secret.
func DeriveKey(secret []byte) []byte {
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write(secret)
	return h.Sum(nil)
}

// DevKey is the well-known development key used when no key is supplied
// — simulations and smoke tests share it so `attestctl audit verify`
// works without key plumbing. Production ledgers must use a RoT-derived
// key (rot.AuditKey) or an operator secret; see docs/AUDIT.md for what
// the chain does and does not protect against under each choice.
func DevKey() []byte {
	return DeriveKey([]byte("pera-audit-dev"))
}

// genesis returns the chain link preceding record 0.
func genesis(key []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(genesisDomain))
	return m.Sum(nil)
}

// chainLink computes link[i] from link[i-1] and record i's body bytes.
func chainLink(key, prev, body []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(prev)
	m.Write(body)
	return m.Sum(nil)
}

// splitMAC separates a raw ledger line (without trailing newline) into
// the MAC'd body and the hex mac value. The mac member is always the
// textually final member, so no JSON round-trip is needed — verification
// operates on the exact bytes that were sealed.
func splitMAC(line []byte) (body []byte, macHex string, ok bool) {
	const marker = `,"mac":"`
	if len(line) < len(marker)+2 || line[len(line)-1] != '}' || line[len(line)-2] != '"' {
		return nil, "", false
	}
	// Search backwards for the marker; mac values are fixed-width hex so
	// the marker sits at a known distance, but a tampered line may not.
	idx := -1
	for i := len(line) - len(marker); i >= 0; i-- {
		if string(line[i:i+len(marker)]) == marker {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, "", false
	}
	body = append(append([]byte(nil), line[:idx]...), '}')
	return body, string(line[idx+len(marker) : len(line)-2]), true
}
