package fleetscope

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pera/internal/freshness"
	"pera/internal/profiler"
	"pera/internal/telemetry"
)

// seededWatchdog builds a watchdog with one fresh, one lapsed and one
// never-attested place under a wide budget, alerts fired.
func seededWatchdog(name string) *freshness.Watchdog {
	w := freshness.New(name, freshness.Config{
		Budget: freshness.Budget{FreshFor: 30 * time.Second, LapsedAfter: time.Minute},
	})
	now := time.Now()
	w.Track("sw1", "sw2", "sw3")
	w.RecordFresh("sw1", now)
	w.RecordFresh("sw2", now.Add(-2*time.Minute))
	w.Tick()
	w.Tick() // firing hysteresis: two breaching evaluations
	return w
}

// The wire-schema pin (satellite): fleetscope's pinned Coverage struct
// must decode the real watchdog handler's output losslessly — every
// field the trust-map merge and renders read must survive the
// encode/decode round-trip.
func TestCoverageRoundTrip(t *testing.T) {
	w := seededWatchdog("rt")
	srv := httptest.NewServer(w.CoverageHandler())
	defer srv.Close()

	var got Coverage
	c := NewClient(2 * time.Second)
	if err := c.GetJSON(context.Background(), srv.URL, "", &got); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	want := w.Coverage()

	if got.Watchdog != want.Watchdog || got.Policy != want.Policy {
		t.Fatalf("identity: got %s/%s want %s/%s", got.Watchdog, got.Policy, want.Watchdog, want.Policy)
	}
	if got.BudgetFreshNS != want.BudgetFreshNS || got.BudgetLapsedNS != want.BudgetLapsedNS ||
		got.SLOTarget != want.SLOTarget {
		t.Fatalf("budget fields drifted: got %+v", got)
	}
	if got.Fresh != 1 || got.Lapsed != 1 || got.Never != 1 {
		t.Fatalf("status counts: fresh=%d lapsed=%d never=%d, want 1/1/1", got.Fresh, got.Lapsed, got.Never)
	}
	if len(got.Places) != len(want.Places) {
		t.Fatalf("places: got %d want %d", len(got.Places), len(want.Places))
	}
	for i, gp := range got.Places {
		wp := want.Places[i]
		if gp.Place != wp.Place || gp.Status != string(wp.Status) || gp.Policy != wp.Policy {
			t.Fatalf("place %d: got %+v want %+v", i, gp, wp)
		}
		if gp.LastFreshNS != wp.LastFreshNS || gp.Tracked != wp.Tracked {
			t.Fatalf("place %s: last_fresh/tracked drifted: got %+v want %+v", gp.Place, gp, wp)
		}
		// AgeNS is clock-relative; both snapshots must agree on "has an age".
		if (gp.AgeNS == 0) != (wp.AgeNS == 0) {
			t.Fatalf("place %s: age presence drifted (got %d, want %d)", gp.Place, gp.AgeNS, wp.AgeNS)
		}
	}
}

// Same pin for /alerts.json: firing alerts decoded through the
// fleetscope Alert struct keep the fields the merged feed depends on.
func TestAlertsRoundTrip(t *testing.T) {
	w := seededWatchdog("rt")
	srv := httptest.NewServer(w.AlertsHandler())
	defer srv.Close()

	var got AlertsSnapshot
	c := NewClient(2 * time.Second)
	if err := c.GetJSON(context.Background(), srv.URL, "", &got); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	want := w.Alerts()

	if got.Watchdog != want.Watchdog || got.Firing != want.Firing ||
		got.FiredTotal != want.FiredTotal || got.ResolvedTotal != want.ResolvedTotal {
		t.Fatalf("snapshot header drifted: got %+v want %+v", got, want)
	}
	if got.Firing == 0 {
		t.Fatal("seeded watchdog should have firing alerts")
	}
	if len(got.Alerts) != len(want.Alerts) {
		t.Fatalf("alerts: got %d want %d", len(got.Alerts), len(want.Alerts))
	}
	for i, ga := range got.Alerts {
		wa := want.Alerts[i]
		if ga.ID != wa.ID || ga.Rule != wa.Rule || ga.Place != wa.Place ||
			ga.State != wa.State || ga.Reason != wa.Reason || ga.FiredAtNS != wa.FiredAtNS {
			t.Fatalf("alert %d drifted: got %+v want %+v", i, ga, wa)
		}
	}
}

// The /metrics.json pin: values written through a telemetry registry
// come back through MetricsSnapshot, including label variants, and
// Value sums across them.
func TestMetricsRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pera_pool_pass_total", telemetry.L("worker", "0")).Add(3)
	reg.Counter("pera_pool_pass_total", telemetry.L("worker", "1")).Add(4)
	reg.Counter("pera_verify_fails_total").Add(2)
	srv := httptest.NewServer(telemetry.Handler(reg, nil))
	defer srv.Close()

	var got MetricsSnapshot
	c := NewClient(2 * time.Second)
	if err := c.GetJSON(context.Background(), srv.URL, MetricsPath, &got); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if v := got.Value("pera_pool_pass_total"); v != 7 {
		t.Fatalf("pass total = %v, want 7 (summed across label variants)", v)
	}
	if v := got.Value("pera_verify_fails_total"); v != 2 {
		t.Fatalf("verify fails = %v, want 2", v)
	}
	if v := got.Value("pera_absent_metric"); v != 0 {
		t.Fatalf("absent metric = %v, want 0", v)
	}
}

// burn keeps a goroutine CPU-bound for d so the profiler's sampler has
// something to attribute.
func burn(d time.Duration) uint64 {
	var x uint64 = 88172645463325252
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<12; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

// The /profile.json pin: fleetscope's ProfileSummary struct must decode
// the real continuous-profiler handler's output — the fields the fleet
// rollup reads (hotspot, labeled share, stage and top-function tables)
// survive the round-trip.
func TestProfileRoundTrip(t *testing.T) {
	p := profiler.New(profiler.Options{Service: "prof-rt"})
	region := telemetry.NewProfRegion(telemetry.StageVerify, "sw1")
	hot := func() {
		entered := region.Enter()
		burn(250 * time.Millisecond)
		telemetry.ProfExit(entered)
	}
	// The OS CPU sampler can be starved on loaded hosts; retry, then skip.
	var want profiler.Summary
	for attempt := 0; attempt < 3; attempt++ {
		if err := p.CaptureWhile(hot); err != nil {
			t.Fatalf("capture: %v", err)
		}
		if want = p.Summary(0); want.TotalSeconds > 0 && want.Hotspot != "" {
			break
		}
	}
	if want.TotalSeconds == 0 || want.Hotspot == "" {
		t.Skip("CPU sampler captured no samples on this host")
	}

	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(telemetry.Handler(reg, nil, p.Endpoints()...))
	defer srv.Close()

	var got ProfileSummary
	c := NewClient(2 * time.Second)
	if err := c.GetJSON(context.Background(), srv.URL, ProfilePath, &got); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if got.Service != "prof-rt" || got.Captures != want.Captures {
		t.Fatalf("identity drifted: got %+v want %+v", got, want)
	}
	if got.TotalSeconds != want.TotalSeconds || got.LabeledShare != want.LabeledShare {
		t.Fatalf("CPU accounting drifted: got %v/%v want %v/%v",
			got.TotalSeconds, got.LabeledShare, want.TotalSeconds, want.LabeledShare)
	}
	if got.Hotspot != want.Hotspot || got.HotspotShare != want.HotspotShare {
		t.Fatalf("hotspot drifted: got %s@%v want %s@%v",
			got.Hotspot, got.HotspotShare, want.Hotspot, want.HotspotShare)
	}
	if len(got.Stages) != len(want.Stages) || len(got.Top) != len(want.Top) {
		t.Fatalf("tables drifted: %d/%d stages, %d/%d top rows",
			len(got.Stages), len(want.Stages), len(got.Top), len(want.Top))
	}
	for i, gs := range got.Stages {
		ws := want.Stages[i]
		if gs.Stage != ws.Stage || gs.Place != ws.Place || gs.Seconds != ws.Seconds || gs.Share != ws.Share {
			t.Fatalf("stage %d drifted: got %+v want %+v", i, gs, ws)
		}
	}
	var verifyRow *ProfileStage
	for i := range got.Stages {
		if got.Stages[i].Stage == "verify" && got.Stages[i].Place == "sw1" {
			verifyRow = &got.Stages[i]
		}
	}
	if verifyRow == nil || verifyRow.Seconds <= 0 {
		t.Fatalf("no (verify, sw1) stage row on the wire: %+v", got.Stages)
	}
}

// ScrapeTarget succeeds against a plain telemetry server (no watchdog,
// no recorder): the optional surfaces 404 and that is a target shape,
// not an error.
func TestScrapeTargetMetricsOnly(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(telemetry.Handler(reg, nil))
	defer srv.Close()

	c := NewClient(2 * time.Second)
	s, err := c.ScrapeTarget(context.Background(), Target{Name: "bare", URL: srv.URL}, time.Now)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if s.Metrics == nil {
		t.Fatal("metrics missing")
	}
	if s.Coverage != nil || s.Alerts != nil || s.Observatory != nil || s.Profile != nil {
		t.Fatal("absent surfaces should stay nil")
	}
	if s.Series != -1 {
		t.Fatalf("series = %d, want -1 for no recorder", s.Series)
	}
	if s.EndpointErrs != 0 {
		t.Fatalf("endpoint errs = %d, want 0 — 404s are not errors", s.EndpointErrs)
	}
}

// A target with a watchdog yields coverage and alerts on the same scrape.
func TestScrapeTargetWithWatchdog(t *testing.T) {
	w := seededWatchdog("full")
	reg := telemetry.NewRegistry()
	w.Instrument(reg)
	srv := httptest.NewServer(telemetry.Handler(reg, nil, w.Endpoints()...))
	defer srv.Close()

	c := NewClient(2 * time.Second)
	s, err := c.ScrapeTarget(context.Background(), Target{Name: "full", URL: srv.URL}, time.Now)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if s.Coverage == nil || len(s.Coverage.Places) != 3 {
		t.Fatalf("coverage = %+v, want 3 places", s.Coverage)
	}
	if s.Alerts == nil || s.Alerts.Firing == 0 {
		t.Fatalf("alerts = %+v, want firing", s.Alerts)
	}
}

// Scrape failure is exactly "/metrics.json unreachable"; a broken
// optional surface only counts as an endpoint error.
func TestScrapeTargetFailures(t *testing.T) {
	c := NewClient(200 * time.Millisecond)
	if _, err := c.ScrapeTarget(context.Background(),
		Target{Name: "dead", URL: "http://127.0.0.1:1"}, time.Now); err == nil {
		t.Fatal("scrape of a dead address should fail")
	}

	mux := http.NewServeMux()
	reg := telemetry.NewRegistry()
	mux.Handle("/metrics.json", telemetry.Handler(reg, nil))
	mux.HandleFunc(CoveragePath, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	s, err := c.ScrapeTarget(context.Background(), Target{Name: "half", URL: srv.URL}, time.Now)
	if err != nil {
		t.Fatalf("scrape should survive a broken optional surface: %v", err)
	}
	if s.EndpointErrs == 0 {
		t.Fatal("broken /coverage.json should count as an endpoint error")
	}
	if s.Coverage != nil {
		t.Fatal("broken coverage should stay nil")
	}
}

// Transport errors are retried once within the same attempt.
func TestGetJSONRetriesTransportErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Kill the connection mid-flight: a transport error, not HTTP.
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"metrics":[]}`))
	}))
	defer srv.Close()

	var out MetricsSnapshot
	c := NewClient(2 * time.Second)
	if err := c.GetJSON(context.Background(), srv.URL, "", &out); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (one failure + one retry)", calls.Load())
	}
}
