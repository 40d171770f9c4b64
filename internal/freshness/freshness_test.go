package freshness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/telemetry"
)

// feedVerdict feeds w one appraisal's end the way Appraiser.Subscribe
// delivers it: the appraise envelope with the verdict, its provenance
// and the signers the appraiser verified.
func feedVerdict(w *Watchdog, signers []string, pass bool, place, stage, reason string) {
	v := "FAIL"
	if pass {
		v = "PASS"
	}
	w.StageEnded(telemetry.StageEvent{
		Stage: telemetry.StageAppraise, Verdict: v, Signers: signers,
		Prov: telemetry.Provenance{Place: place, Stage: stage, Reason: reason},
	})
}

func TestDeriveBudget(t *testing.T) {
	b := DeriveBudget(16 * time.Second)
	if b.FreshFor != 24*time.Second || b.LapsedAfter != 48*time.Second {
		t.Fatalf("budget = %+v, want 24s/48s", b)
	}
}

// newTestWatchdog builds a watchdog with second-scale budgets on a
// simulated clock.
func newTestWatchdog(clk *SimClock) *Watchdog {
	return New("wd-test", Config{
		Budget: Budget{FreshFor: 24 * time.Second, LapsedAfter: 48 * time.Second},
		Clock:  clk.Now,
	})
}

func TestStatusBoundaries(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)
	w.Track("sw1")
	w.RecordFresh("sw1", clk.Now())

	at := func(age time.Duration, want Status) {
		t.Helper()
		cov := w.Coverage()
		if len(cov.Places) != 1 || cov.Places[0].Status != want {
			t.Fatalf("age %v: coverage = %+v, want %s", age, cov.Places, want)
		}
	}
	at(0, StatusFresh)
	clk.Advance(24*time.Second - time.Nanosecond)
	at(24*time.Second-time.Nanosecond, StatusFresh)
	clk.Advance(time.Nanosecond) // age == FreshFor: half-open → stale
	at(24*time.Second, StatusStale)
	clk.Advance(24*time.Second - time.Nanosecond)
	at(48*time.Second-time.Nanosecond, StatusStale)
	clk.Advance(time.Nanosecond) // age == LapsedAfter → lapsed
	at(48*time.Second, StatusLapsed)
}

// recordSink captures events for assertions.
type recordSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *recordSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *recordSink) kinds() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.events))
	for i, e := range s.events {
		out[i] = e.Kind + ":" + e.Alert.Place
	}
	return out
}

func TestAlertLifecycle(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)
	sink := &recordSink{}
	w.AddSink(sink)
	w.Track("sw1")
	w.RecordFresh("sw1", clk.Now())

	var probed []string
	w.SetProber(ProbeFunc(func(place string) error {
		probed = append(probed, place)
		return errors.New("attester unreachable")
	}))

	// Decay past the lapse budget, then evaluate. fireAfter=2 means the
	// first breaching evaluation must NOT fire (hysteresis).
	clk.Advance(49 * time.Second)
	w.Tick()
	if got := w.Alerts(); got.FiredTotal != 0 {
		t.Fatalf("fired after one breaching eval, want hysteresis hold: %+v", got)
	}
	w.Tick()
	snap := w.Alerts()
	if snap.FiredTotal == 0 || snap.Firing == 0 {
		t.Fatalf("no alert after %d breaching evals: %+v", 2, snap)
	}
	var stale *Alert
	for i := range snap.Alerts {
		if snap.Alerts[i].Rule == RuleStaleness && snap.Alerts[i].State == StateFiring {
			stale = &snap.Alerts[i]
		}
	}
	if stale == nil {
		t.Fatalf("no firing staleness alert: %+v", snap.Alerts)
	}
	if stale.Place != "sw1" || stale.Policy != "AP1" {
		t.Fatalf("alert = %+v", stale)
	}
	// The firing transition probes immediately, even though the probe
	// fails here.
	if len(probed) == 0 || probed[0] != "sw1" {
		t.Fatalf("no probe on firing transition: %v", probed)
	}

	// Fresh evidence + resolveAfter clean evaluations resolves the
	// threshold alert immediately; the burn-rate alert (fired once
	// minSamples accumulate, on a 22%-bad window) drains as clean
	// samples dilute the window.
	w.RecordFresh("sw1", clk.Now())
	w.Tick()
	mid := w.Alerts()
	var staleFiring bool
	for _, a := range mid.Alerts {
		if a.Rule == RuleStaleness && a.State == StateFiring {
			staleFiring = true
		}
	}
	if staleFiring || mid.ResolvedTotal == 0 {
		t.Fatalf("staleness alert did not resolve on fresh evidence: %+v", mid)
	}
	for i := 0; i < 20; i++ {
		w.Tick()
	}
	final := w.Alerts()
	if final.Firing != 0 {
		t.Fatalf("alerts still firing after window drained clean: %+v", final)
	}

	kinds := sink.kinds()
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "fired:sw1") || !strings.Contains(joined, "probe:sw1") ||
		!strings.Contains(joined, "resolved:sw1") {
		t.Fatalf("sink saw %v, want fired+probe+resolved", kinds)
	}
}

func TestNeverAttestedAlert(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)
	w.Track("ghost")
	w.Tick()
	w.Tick()
	snap := w.Alerts()
	if snap.Firing == 0 {
		t.Fatalf("tracked-but-never-attested place did not alert: %+v", snap)
	}
	cov := w.Coverage()
	if cov.Never != 1 || cov.Places[0].Status != StatusNever {
		t.Fatalf("coverage = %+v, want 1 never-attested", cov)
	}
}

func TestBurnRateRule(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)
	w.Track("sw1")
	w.RecordFresh("sw1", clk.Now())

	// Sit just inside stale (past FreshFor, before LapsedAfter): the
	// threshold rule never breaches, but every window sample is out of
	// budget, so the burn rule must fire once minSamples accumulate and
	// fireAfter evaluations confirm the breach.
	clk.Advance(30 * time.Second)
	for i := 0; i < minSamples+fireAfter; i++ {
		w.Tick()
	}
	snap := w.Alerts()
	var burn bool
	for _, a := range snap.Alerts {
		if a.Rule == RuleBurn && a.Place == "sw1" {
			burn = true
		}
		if a.Rule == RuleStaleness {
			t.Fatalf("threshold rule fired while merely stale: %+v", a)
		}
	}
	if !burn {
		t.Fatalf("burn-rate rule never fired: %+v", snap.Alerts)
	}
}

func TestAlertRingBounded(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)
	// Cycle more fire→resolve pairs than the ring holds, on distinct
	// tracked places.
	const n = alertRing + 4
	for i := 0; i < n; i++ {
		place := fmt.Sprintf("sw%d", i)
		w.Track(place)
		w.Tick()
		w.Tick() // never-attested fires
		w.RecordFresh(place, clk.Now())
		w.Tick() // resolves
	}
	snap := w.Alerts()
	if len(snap.Alerts) != alertRing {
		t.Fatalf("ring holds %d alerts, bound is %d", len(snap.Alerts), alertRing)
	}
	if snap.FiredTotal < n {
		t.Fatalf("fired total = %d, want ≥ %d", snap.FiredTotal, n)
	}
	// Newest first.
	for i := 1; i < len(snap.Alerts); i++ {
		if snap.Alerts[i].ID > snap.Alerts[i-1].ID {
			t.Fatalf("alerts not newest-first: %v then %v", snap.Alerts[i-1].ID, snap.Alerts[i].ID)
		}
	}
}

func TestCacheCommitFlow(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)

	// Evidence produced (cache Put) is only *pending* trust…
	w.CacheEvent(evidence.CacheEvent{
		Kind: evidence.CachePut, Place: "sw1", Target: "tables",
		Detail: evidence.DetailTables, TTL: 16 * time.Second, At: clk.Now(),
	})
	cov := w.Coverage()
	if cov.Places[0].Status != StatusNever {
		t.Fatalf("pending evidence counted as committed: %+v", cov.Places[0])
	}

	// …and a clean verdict over its signature commits it.
	feedVerdict(w, []string{"sw1"}, true, "", "accept", "")
	cov = w.Coverage()
	if cov.Places[0].Status != StatusFresh {
		t.Fatalf("clean verdict did not commit pending trust: %+v", cov.Places[0])
	}
	if cov.Places[0].LastFreshNS != clk.Now().UnixNano() {
		t.Fatalf("lastFresh = %d, want put instant", cov.Places[0].LastFreshNS)
	}

	// A failing verdict must not commit.
	clk.Advance(time.Second)
	w.CacheEvent(evidence.CacheEvent{
		Kind: evidence.CachePut, Place: "sw2", Target: "tables",
		Detail: evidence.DetailTables, TTL: 16 * time.Second, At: clk.Now(),
	})
	feedVerdict(w, []string{"sw2"}, false, "sw2", "golden", "hash mismatch")
	for _, p := range w.Coverage().Places {
		if p.Place == "sw2" && p.Status != StatusNever {
			t.Fatalf("failing verdict committed trust: %+v", p)
		}
		if p.Place == "sw2" && p.Fails != 1 {
			t.Fatalf("fail not attributed: %+v", p)
		}
	}
}

func TestSinks(t *testing.T) {
	a := Alert{ID: 7, Rule: RuleStaleness, Place: "sw2", Policy: "AP1",
		State: StateFiring, Reason: "age 50s exceeds 48s", AgeNS: int64(50 * time.Second)}

	var logBuf bytes.Buffer
	NewLogSink(&logBuf).Emit(Event{Kind: "fired", Alert: a})
	if !strings.Contains(logBuf.String(), "ALERT FIRING") || !strings.Contains(logBuf.String(), "sw2") {
		t.Fatalf("log sink: %q", logBuf.String())
	}

	var ledger bytes.Buffer
	aw := auditlog.NewWriter(&ledger, auditlog.Options{})
	as := NewAuditSink(aw)
	as.Emit(Event{Kind: "fired", Alert: a})
	as.Emit(Event{Kind: "probe", Alert: a, ProbeOK: true})
	resolved := a
	resolved.State = StateResolved
	resolved.ResolvedNS = resolved.FiredAtNS + int64(10*time.Second)
	as.Emit(Event{Kind: "resolved", Alert: resolved})
	aw.Close()
	if _, err := auditlog.VerifyReader(bytes.NewReader(ledger.Bytes()), auditlog.DevKey()); err != nil {
		t.Fatalf("alert ledger verification: %v", err)
	}
	recs, err := auditlog.ReadRecords(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []auditlog.Event{auditlog.EventAlertFired, auditlog.EventAlertProbe, auditlog.EventAlertResolved} {
		if n := len(auditlog.Query{Event: string(ev)}.Filter(recs)); n != 1 {
			t.Fatalf("%s records = %d, want 1", ev, n)
		}
	}
}

func TestInstrument(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	w := newTestWatchdog(clk)
	reg := telemetry.NewRegistry()
	w.Instrument(reg)
	w.Track("sw1", "sw2")
	w.RecordFresh("sw1", clk.Now())
	clk.Advance(30 * time.Second) // sw1 stale, sw2 never
	w.Tick()
	w.Tick()

	snap := reg.Snapshot()
	if v := snap.Value("pera_freshness_places", telemetry.L("status", "stale")); v != 1 {
		t.Fatalf("stale places = %v", v)
	}
	if v := snap.Value("pera_freshness_places", telemetry.L("status", "never-attested")); v != 1 {
		t.Fatalf("never places = %v", v)
	}
	if v := snap.Value("pera_freshness_evidence_age_seconds",
		telemetry.L("place", "sw1"), telemetry.L("policy", "AP1")); v != 30 {
		t.Fatalf("sw1 age = %v, want 30", v)
	}
	if v := snap.Value("pera_freshness_oldest_age_seconds"); v != 30 {
		t.Fatalf("oldest = %v", v)
	}
	if v := snap.Value("pera_alerts_firing"); v < 1 {
		t.Fatalf("firing gauge = %v", v)
	}
}
