package recorder

import (
	"testing"
	"time"

	"pera/internal/telemetry"
)

// feedGauge drives a gauge series through the store+engine one scrape at
// a time and returns every anomaly tripped.
func feedGauge(t *testing.T, vals []float64) []Anomaly {
	t.Helper()
	reg := telemetry.NewRegistry()
	g := reg.Gauge("pera_pool_queue_depth")
	s := NewStore()
	e := NewEngine(s, nil)
	var out []Anomaly
	for i, v := range vals {
		g.Set(v)
		now := sec(i)
		s.Observe(now, reg.Snapshot())
		out = append(out, e.Evaluate(now)...)
	}
	return out
}

func TestRobustZTripsOnStep(t *testing.T) {
	// 30 flat samples with small jitter, then a 100× step.
	vals := make([]float64, 31)
	for i := range vals {
		vals[i] = 10 + float64(i%3)*0.01
	}
	vals[30] = 1000
	got := feedGauge(t, vals)
	if len(got) != 1 {
		t.Fatalf("anomalies = %d, want exactly 1 (the step)", len(got))
	}
	a := got[0]
	if a.Rule != RuleRobustZ {
		t.Fatalf("rule = %q, want %q", a.Rule, RuleRobustZ)
	}
	if a.SeriesID != "pera_pool_queue_depth" {
		t.Fatalf("series = %q", a.SeriesID)
	}
	if a.Value != 1000 || a.Z < 6 {
		t.Fatalf("value=%g z=%g, want value 1000 and z >= 6", a.Value, a.Z)
	}
	if a.TSNS != sec(30) {
		t.Fatalf("trip at %d, want the step's scrape %d", a.TSNS, sec(30))
	}
}

func TestRobustZQuietOnSteadySeries(t *testing.T) {
	// Jittering around a level must never page.
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 50 + float64(i%5)
	}
	if got := feedGauge(t, vals); len(got) != 0 {
		t.Fatalf("steady series tripped %d anomalies: %+v", len(got), got)
	}
}

func TestRobustZAllZeroBaselineStillTrips(t *testing.T) {
	// MAD of an all-constant baseline is 0; minSigma must keep a genuine
	// jump detectable instead of dividing by zero or staying silent.
	vals := make([]float64, 21)
	vals[20] = 5
	got := feedGauge(t, vals)
	if len(got) != 1 {
		t.Fatalf("anomalies = %d, want 1 (jump off a flat-zero baseline)", len(got))
	}
}

func TestDetectorWarmupSuppresses(t *testing.T) {
	// A spike inside the warmup window is never judged.
	vals := []float64{0, 0, 0, 0, 1000}
	if got := feedGauge(t, vals); len(got) != 0 {
		t.Fatalf("warmup violated: %+v", got)
	}
}

func TestDetectorCooldownMutes(t *testing.T) {
	// Two steps 5s apart: only the first pages, the second falls inside
	// the cooldown. A third step 5s past the cooldown pages again.
	const first = 30
	after := first + int(cooldown/time.Second) + 5
	vals := make([]float64, after+5)
	for i := range vals {
		vals[i] = 10
	}
	vals[first] = 500
	vals[first+5] = 800
	vals[after] = 800
	got := feedGauge(t, vals)
	if len(got) != 2 {
		t.Fatalf("anomalies = %d, want 2 (second trip inside cooldown, third past it)", len(got))
	}
	if got[0].TSNS != sec(first) || got[1].TSNS != sec(after) {
		t.Fatalf("trips at %d and %d, want %d and %d", got[0].TSNS, got[1].TSNS, sec(first), sec(after))
	}
}

func TestRateSpikeOnCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("pera_verify_fails_total")
	s := NewStore()
	e := NewEngine(s, nil)
	var got []Anomaly
	for i := 0; i < 40; i++ {
		if i == 30 {
			c.Add(100) // the UC1 signature: verify failures appear in a burst
		}
		now := sec(i)
		s.Observe(now, reg.Snapshot())
		got = append(got, e.Evaluate(now)...)
	}
	if len(got) != 1 {
		t.Fatalf("anomalies = %d, want 1", len(got))
	}
	a := got[0]
	if a.Rule != RuleRateSpike {
		t.Fatalf("rule = %q, want %q", a.Rule, RuleRateSpike)
	}
	if a.Value < 99 || a.Value > 101 {
		t.Fatalf("rate = %g/s, want ~100/s", a.Value)
	}
}

func TestRateSpikeIgnoresDecreaseAndReset(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("pera_verify_fails_total")
	s := NewStore()
	e := NewEngine(s, nil)
	var got []Anomaly
	tick := 0
	scrape := func() {
		now := sec(tick)
		tick++
		s.Observe(now, reg.Snapshot())
		got = append(got, e.Evaluate(now)...)
	}
	// Steady 1/s rate to warm up.
	for i := 0; i < 30; i++ {
		c.Inc()
		scrape()
	}
	// A rate drop (counter stalls) must not page — failures stopping is
	// not an incident.
	for i := 0; i < 5; i++ {
		scrape()
	}
	if len(got) != 0 {
		t.Fatalf("rate drop paged: %+v", got)
	}
	// Counter reset (component re-created): the engine restarts the
	// baseline instead of seeing a negative rate or a huge recovery jump.
	reg2 := telemetry.NewRegistry()
	c2 := reg2.Counter("pera_verify_fails_total")
	for i := 0; i < 5; i++ {
		c2.Inc()
		s.Observe(sec(tick), reg2.Snapshot())
		got = append(got, e.Evaluate(sec(tick))...)
		tick++
	}
	if len(got) != 0 {
		t.Fatalf("counter reset paged: %+v", got)
	}
	_ = c
}

func TestRateSpikeBaselineRestartsAfterReset(t *testing.T) {
	// A counter reset must restart the rate baseline from scratch: the
	// engine re-enters warmup (a post-reset burst inside it never pages,
	// even though the pre-reset baseline would have scored it), and once
	// re-warmed a genuine spike pages again.
	reg := telemetry.NewRegistry()
	c := reg.Counter("pera_verify_fails_total")
	s := NewStore()
	e := NewEngine(s, nil)
	var got []Anomaly
	tick := 0
	scrape := func() {
		now := sec(tick)
		tick++
		s.Observe(now, reg.Snapshot())
		got = append(got, e.Evaluate(now)...)
	}
	// Warm a steady 1/s baseline.
	for i := 0; i < 20; i++ {
		c.Inc()
		scrape()
	}
	if len(got) != 0 {
		t.Fatalf("steady warmup paged: %+v", got)
	}
	// Reset: swap the registry so the same series name restarts at zero.
	reg2 := telemetry.NewRegistry()
	c2 := reg2.Counter("pera_verify_fails_total")
	reg = reg2
	scrape() // the negative-rate sample that must clear the baseline
	if st := e.states["pera_verify_fails_total"]; st == nil || st.samples != 0 || len(st.rates) != 0 {
		t.Fatalf("baseline not restarted after reset: %+v", st)
	}
	// A burst while re-warming must stay silent — only the restarted
	// baseline's own warmup counts, not the 20 pre-reset samples.
	c2.Add(100)
	scrape()
	for i := 0; i < 9; i++ {
		c2.Inc()
		scrape()
	}
	if len(got) != 0 {
		t.Fatalf("post-reset warmup paged: %+v", got)
	}
	// Finish re-warming at 1/s, then a real spike pages once more.
	for i := 0; i < 10; i++ {
		c2.Inc()
		scrape()
	}
	c2.Add(100)
	scrape()
	if len(got) != 1 || got[0].Rule != RuleRateSpike {
		t.Fatalf("re-warmed spike: got %+v, want one rate-spike", got)
	}
}

func TestEngineWatchesOnlyConfiguredSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	watched := reg.Gauge("pera_pool_queue_depth")
	ignored := reg.Gauge("unwatched_gauge")
	s := NewStore()
	e := NewEngine(s, nil) // DefaultWatch
	var got []Anomaly
	for i := 0; i < 40; i++ {
		watched.Set(1)
		ignored.Set(1)
		if i == 30 {
			ignored.Set(99999) // huge step on an unwatched series
		}
		now := sec(i)
		s.Observe(now, reg.Snapshot())
		got = append(got, e.Evaluate(now)...)
	}
	if len(got) != 0 {
		t.Fatalf("unwatched series paged: %+v", got)
	}
	evals, anomalies := e.Stats()
	if evals == 0 || anomalies != 0 {
		t.Fatalf("stats = %d evals / %d anomalies", evals, anomalies)
	}
}

func TestMedianMAD(t *testing.T) {
	med, mad := medianMAD([]float64{1, 2, 3, 4, 100})
	if med != 3 {
		t.Fatalf("median = %g, want 3", med)
	}
	if mad != 1 {
		t.Fatalf("MAD = %g, want 1 (robust to the 100 outlier)", mad)
	}
}
