package harness

import (
	"bytes"
	"path/filepath"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/freshness"
)

// End-to-end trust-decay acceptance: on a 4-hop UC1 chain, freezing one
// place's re-attestation must fire a staleness alert within 128
// injected packets, the coverage map at that instant must mark exactly
// that place lapsed, the firing/probe/resolution records must land in
// the verified audit ledger, and the alert must resolve after the
// recovery probe refreshes evidence.
func TestSLOTrustDecayE2E(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	aud, err := auditlog.Create(path, auditlog.Options{KeyID: "slo-e2e"})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}

	var logBuf bytes.Buffer
	res, err := RunSLO(SLOOptions{
		Audit:    aud,
		AlertLog: &logBuf,
	})
	if err != nil {
		t.Fatalf("RunSLO: %v", err)
	}
	if res.Fail != 0 {
		t.Fatalf("in-band verdicts failed: %d/%d — the freeze must stay silent on the appraisal path",
			res.Fail, res.Packets)
	}
	if res.FreezeAt != 16 || res.FreezeSwitch != "sw2" {
		t.Fatalf("freeze: at=%d switch=%s", res.FreezeAt, res.FreezeSwitch)
	}

	// 1. The staleness alert fires within 128 packets of a 160-packet run.
	if res.StalenessFiredAt == 0 || res.StalenessFiredAt > 128 {
		t.Fatalf("staleness alert fired at packet %d, want within (0,128]", res.StalenessFiredAt)
	}
	// The burn-rate rule is the early warning: it must trip before the
	// hard budget edge does.
	if res.BurnFiredAt == 0 || res.BurnFiredAt >= res.StalenessFiredAt {
		t.Fatalf("burn alert at %d, staleness at %d: burn should warn first",
			res.BurnFiredAt, res.StalenessFiredAt)
	}

	// 2. Coverage at fire time: exactly the frozen place lapsed.
	cov := res.CoverageAtFire
	if cov.Lapsed != 1 {
		t.Fatalf("coverage at fire: %d lapsed, want exactly 1\n%+v", cov.Lapsed, cov.Places)
	}
	for _, p := range cov.Places {
		if p.Place == res.FreezeSwitch {
			if p.Status != freshness.StatusLapsed {
				t.Fatalf("frozen place %s status %s at fire, want lapsed", p.Place, p.Status)
			}
		} else if p.Status == freshness.StatusLapsed || p.Status == freshness.StatusNever {
			t.Fatalf("healthy place %s status %s at fire", p.Place, p.Status)
		}
	}

	// 3. Resolution: after recovery at packet 96 the probe refreshes the
	// evidence and every alert eventually resolves.
	if res.RecoverAt != 96 {
		t.Fatalf("recover at %d, want 96", res.RecoverAt)
	}
	if res.ResolvedAt == 0 || res.ResolvedAt <= res.RecoverAt {
		t.Fatalf("alerts resolved at %d, want after recovery at %d", res.ResolvedAt, res.RecoverAt)
	}
	if res.Alerts.Firing != 0 {
		t.Fatalf("%d alerts still firing at end of run:\n%+v", res.Alerts.Firing, res.Alerts.Alerts)
	}
	if res.Alerts.ResolvedTotal != res.Alerts.FiredTotal || res.Alerts.FiredTotal < 2 {
		t.Fatalf("alert totals: fired=%d resolved=%d, want equal and ≥2 (staleness + burn)",
			res.Alerts.FiredTotal, res.Alerts.ResolvedTotal)
	}

	// 4. Probes: while frozen the place refuses the RATS challenge; the
	// recovery probe appraises clean.
	var frozenRow *freshness.PlaceCoverage
	for i := range res.Coverage.Places {
		if res.Coverage.Places[i].Place == res.FreezeSwitch {
			frozenRow = &res.Coverage.Places[i]
		}
	}
	if frozenRow == nil {
		t.Fatalf("frozen place %s missing from coverage", res.FreezeSwitch)
	}
	if frozenRow.Probes == 0 || frozenRow.ProbesOK == 0 || frozenRow.ProbesOK >= frozenRow.Probes {
		t.Fatalf("frozen place probes %d ok %d: want failures while dark and a clean probe after recovery",
			frozenRow.Probes, frozenRow.ProbesOK)
	}
	if frozenRow.Status != freshness.StatusFresh {
		t.Fatalf("frozen place status %s at end, want fresh after recovery", frozenRow.Status)
	}

	// 5. Audit ledger: alert lifecycle records present, chain verifies.
	if err := aud.Close(); err != nil {
		t.Fatalf("close ledger: %v", err)
	}
	if n, err := auditlog.VerifyFile(path, nil); err != nil {
		t.Fatalf("ledger verification failed after %d records: %v", n, err)
	}
	recs, err := auditlog.ReadLedger(path)
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	counts := map[auditlog.Event]int{}
	for _, rec := range recs {
		counts[rec.Event]++
	}
	if counts[auditlog.EventAlertFired] < 2 {
		t.Fatalf("audit: %d alert_fired records, want ≥2", counts[auditlog.EventAlertFired])
	}
	if counts[auditlog.EventAlertResolved] < 2 {
		t.Fatalf("audit: %d alert_resolved records, want ≥2", counts[auditlog.EventAlertResolved])
	}
	if counts[auditlog.EventAlertProbe] == 0 {
		t.Fatal("audit: no alert_probe records")
	}

	// The human-readable sink saw the firing lines.
	if !bytes.Contains(logBuf.Bytes(), []byte("ALERT FIRING")) {
		t.Fatalf("log sink missing firing line:\n%s", logBuf.String())
	}
}

// With recovery disabled the alert must stay firing and the place stay
// lapsed — the state the smoke script asserts over HTTP.
func TestSLONoRecoveryStaysFiring(t *testing.T) {
	res, err := RunSLO(SLOOptions{Packets: 96, RecoverAfter: -1})
	if err != nil {
		t.Fatalf("RunSLO: %v", err)
	}
	if res.StalenessFiredAt == 0 {
		t.Fatal("staleness alert never fired")
	}
	if res.ResolvedAt != 0 || res.Alerts.Firing == 0 {
		t.Fatalf("resolved=%d firing=%d: want unresolved firing alerts without recovery",
			res.ResolvedAt, res.Alerts.Firing)
	}
	if res.Coverage.Lapsed != 1 {
		t.Fatalf("end coverage: %d lapsed, want 1", res.Coverage.Lapsed)
	}
}
