package harness

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pera/internal/auditlog"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/recorder"
	"pera/internal/telemetry"
)

// End-to-end acceptance for the flight recorder (ISSUE 8): a UC1
// program-swap run with the recorder attached must leave an incident
// bundle on disk that — opened offline, with no live process — names the
// compromised switch, carries the metric history around the incident,
// and embeds a chain-verified audit-ledger tail.

// tickClock advances one second per reading, so recorder cooldown and
// debounce behave deterministically in simulated time: the harness calls
// Scrape per packet, not per wall-clock second.
type tickClock struct{ ticks atomic.Int64 }

func (c *tickClock) Now() time.Time {
	return time.Unix(1_000_000+c.ticks.Add(1), 0)
}

func TestRecorderE2EIncidentBundleLocalizesCompromise(t *testing.T) {
	dir := t.TempDir()
	bundleDir := filepath.Join(dir, "incidents")
	ledger := filepath.Join(dir, "trail.jsonl")
	w, err := auditlog.Create(ledger, auditlog.Options{KeyID: "rec-e2e"})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	col := observatory.New("collector")

	rec := recorder.New(recorder.Config{
		Service: "harness-e2e",
		Clock:   (&tickClock{}).Now,
		Bundle:  recorder.BundlerConfig{Dir: bundleDir, Debounce: 30 * time.Second},
	})
	rec.SetRegistry(reg)
	rec.SetCollector(col)
	rec.SetLedger(w, ledger)
	rec.AddSink(freshness.NewAuditSink(w))
	rec.Instrument(reg)

	res, err := RunObserve(ObserveOptions{
		Hops: 4, Packets: 96, AttackAfter: 32, AttackSwitch: "sw3",
		Collector: col, Registry: reg, Audit: w, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Localization == nil || res.Localization.Place != "sw3" {
		t.Fatalf("localization: %+v", res.Localization)
	}
	if rec.Anomalies() == 0 {
		t.Fatal("recorder saw the whole incident but dispatched no anomalies")
	}
	if rec.Bundles() == 0 {
		t.Fatal("no incident bundle captured")
	}
	w.Close()

	// From here on: offline analysis only. Find the localization bundle.
	infos := recorder.ListBundles(bundleDir)
	if len(infos) == 0 {
		t.Fatal("no bundles on disk")
	}
	var loc *recorder.Bundle
	for _, bi := range infos {
		b, err := recorder.OpenBundle(bi.Path)
		if err != nil {
			t.Fatalf("open %s: %v", bi.Path, err)
		}
		if b.Manifest.Trigger.Rule == recorder.RuleLocalization {
			loc = b
			break
		}
	}
	if loc == nil {
		t.Fatalf("none of %d bundles carries the localization trigger", len(infos))
	}

	// The bundle names the compromised switch in its trigger...
	if loc.Manifest.Trigger.Place != "sw3" {
		t.Fatalf("bundle names %q, want the attacked switch sw3", loc.Manifest.Trigger.Place)
	}
	// ...and in its frozen observatory snapshot.
	var snap struct {
		Localization *observatory.Localization `json:"localization"`
	}
	if err := json.Unmarshal(loc.Files["observatory.json"], &snap); err != nil {
		t.Fatalf("observatory.json: %v", err)
	}
	if snap.Localization == nil || snap.Localization.Place != "sw3" {
		t.Fatalf("bundled observatory localization: %+v", snap.Localization)
	}

	// The bundled metric history includes the verify-failure counter the
	// rate detector watches, with post-attack growth visible.
	var hist struct {
		Series []recorder.Series `json:"series"`
	}
	if err := json.Unmarshal(loc.Files["history.json"], &hist); err != nil {
		t.Fatalf("history.json: %v", err)
	}
	// The UC1 swap invalidates the compromised switch's cached evidence,
	// so the incident's metric signature is cache-miss growth; the
	// bundled history must carry it.
	grew, present := false, false
	for _, s := range hist.Series {
		if s.ID != "pera_evidence_cache_misses_total" {
			continue
		}
		present = true
		if pts := s.Points; len(pts) >= 2 && pts[len(pts)-1].V > pts[0].V {
			grew = true
		}
	}
	if !present {
		t.Fatal("bundled history is missing pera_evidence_cache_misses_total")
	}
	if !grew {
		t.Fatal("cache-miss history shows no post-attack growth")
	}

	// Every archived file matches its manifest digest, and the ledger
	// tail's HMAC chain verifies standalone from the manifest's anchor.
	n, err := loc.Verify(nil)
	if err != nil {
		t.Fatalf("bundle verify: %v", err)
	}
	if n == 0 {
		t.Fatal("bundle carries no verified ledger records")
	}

	// The tail records include the anomaly the recorder sealed through
	// the shared freshness sink pipeline.
	recs, err := auditlog.ReadRecords(bytes.NewReader(loc.Files["ledger_tail.jsonl"]))
	if err != nil {
		t.Fatalf("parse tail: %v", err)
	}
	sawAnomaly := false
	for _, r := range recs {
		if r.Event == auditlog.EventAnomaly {
			sawAnomaly = true
			break
		}
	}
	if !sawAnomaly {
		t.Fatalf("no anomaly_detected record in the %d-record tail", len(recs))
	}

	// The full ledger (the source of the tail) still chain-verifies and
	// records that a bundle was captured.
	if _, err := auditlog.VerifyFile(ledger, nil); err != nil {
		t.Fatalf("full ledger verify: %v", err)
	}
	full, err := auditlog.ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	incidents := auditlog.Query{Event: string(auditlog.EventIncident)}.Filter(full)
	if len(incidents) == 0 {
		t.Fatal("ledger has no incident_bundle record")
	}
}

// TestRecorderE2ECleanRunStaysQuiet: without an attack the detectors
// must not page and no bundle may appear — the flight recorder's false
// positive budget on the exact same traffic shape.
func TestRecorderE2ECleanRunStaysQuiet(t *testing.T) {
	bundleDir := filepath.Join(t.TempDir(), "incidents")
	reg := telemetry.NewRegistry()
	col := observatory.New("collector")
	rec := recorder.New(recorder.Config{
		Clock:  (&tickClock{}).Now,
		Bundle: recorder.BundlerConfig{Dir: bundleDir},
		// Watch the deterministic counter series: latency quantiles
		// depend on wall-clock scheduling and would make a "must stay
		// quiet" assertion timing-dependent.
		Watch: []string{
			"pera_verify_fails_total",
			"pera_evidence_cache_misses_total",
		},
	})
	rec.SetRegistry(reg)
	rec.SetCollector(col)

	res, err := RunObserve(ObserveOptions{
		Hops: 4, Packets: 96, AttackAfter: -1,
		Collector: col, Registry: reg, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fail != 0 {
		t.Fatalf("clean run failed %d packets", res.Fail)
	}
	if got := rec.Anomalies(); got != 0 {
		t.Fatalf("clean run paged %d anomalies", got)
	}
	if got := recorder.ListBundles(bundleDir); len(got) != 0 {
		t.Fatalf("clean run left %d bundles", len(got))
	}
	// History still recorded: the store is always on, bundles are not.
	if s, _, _, n, _ := rec.Store().Stats(); s == 0 || n == 0 {
		t.Fatalf("store recorded nothing (scrapes=%d series=%d)", s, n)
	}
}
