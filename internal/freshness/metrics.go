package freshness

import (
	"time"

	"pera/internal/telemetry"
)

// AgeBuckets is the bound set for evidence-age histograms: powers of
// two from 1s to ~18h. Freshness lives on a seconds-to-hours scale (the
// Fig. 4 inertia ladder spans 1s progstate to 365d hardware), unlike
// the latency histograms' microsecond ladder.
var AgeBuckets = func() []float64 {
	bounds := make([]float64, 17)
	b := 1.0
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}()

// Instrument publishes the watchdog's state as lazy telemetry metrics
// (everything computed at scrape time under the watchdog lock) plus the
// evidence-age histogram observed on every evaluation. It also arms
// per-place freshness gauges: rows discovered after Instrument register
// their gauge on the next feed outside the watchdog lock.
func (w *Watchdog) Instrument(reg *telemetry.Registry) {
	if w == nil || reg == nil {
		return
	}
	// The registry locks during registration and scrapes hold its lock
	// while calling closures that take w.mu, so nothing below may hold
	// w.mu across a registry call.
	hist := reg.Histogram("pera_freshness_age_seconds", AgeBuckets,
		telemetry.L("watchdog", w.name))
	w.mu.Lock()
	w.reg = reg
	w.ageHist = hist
	// Arm gauges for rows that predate instrumentation.
	pending := append([]string(nil), w.rowSeq...)
	w.regPending = nil
	w.mu.Unlock()

	statuses := []Status{StatusFresh, StatusStale, StatusLapsed, StatusNever}
	for _, st := range statuses {
		st := st
		reg.RegisterFunc("pera_freshness_places", telemetry.KindGauge,
			func() float64 { return float64(w.statusCount(st)) },
			telemetry.L("status", string(st)))
	}
	reg.RegisterFunc("pera_freshness_oldest_age_seconds", telemetry.KindGauge,
		func() float64 { return w.oldestAge().Seconds() })
	reg.RegisterFunc("pera_freshness_evaluations_total", telemetry.KindCounter,
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(w.evals) })
	reg.RegisterFunc("pera_alerts_firing", telemetry.KindGauge,
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			n := 0
			for _, as := range w.states {
				if as.current != nil {
					n++
				}
			}
			return float64(n)
		})
	reg.RegisterFunc("pera_alerts_fired_total", telemetry.KindCounter,
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(w.firedTotal) })
	reg.RegisterFunc("pera_alerts_resolved_total", telemetry.KindCounter,
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(w.resolvedTotal) })
	reg.RegisterFunc("pera_alerts_probes_total", telemetry.KindCounter,
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(w.probesTotal) })
	reg.RegisterFunc("pera_alerts_probes_ok_total", telemetry.KindCounter,
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(w.probeOKTotal) })

	for _, place := range pending {
		w.registerPlace(reg, place)
	}
}

// statusCount counts places currently in status st.
func (w *Watchdog) statusCount(st Status) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.cfg.Clock()
	n := 0
	for _, place := range w.rowSeq {
		r := w.rows[place]
		if got, _ := w.statusLocked(r, now); got == st {
			if st == StatusNever && !r.tracked {
				continue
			}
			n++
		}
	}
	return n
}

// oldestAge returns the largest committed-evidence age across attested
// places.
func (w *Watchdog) oldestAge() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.cfg.Clock()
	var oldest time.Duration
	for _, place := range w.rowSeq {
		r := w.rows[place]
		if r.lastFresh.IsZero() {
			continue
		}
		if age := now.Sub(r.lastFresh); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// placeAge returns one place's committed-evidence age in seconds (0
// when never attested) — the per-(place, policy) freshness gauge.
func (w *Watchdog) placeAge(place string) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.rows[place]
	if !ok || r.lastFresh.IsZero() {
		return 0
	}
	return w.cfg.Clock().Sub(r.lastFresh).Seconds()
}

// registerPlace arms one per-place freshness gauge. Never called while
// holding w.mu: the registry locks during RegisterFunc, and scrapes
// hold the registry lock while calling closures that take w.mu — so
// the two locks must only ever nest registry → watchdog.
func (w *Watchdog) registerPlace(reg *telemetry.Registry, place string) {
	reg.RegisterFunc("pera_freshness_evidence_age_seconds", telemetry.KindGauge,
		func() float64 { return w.placeAge(place) },
		telemetry.L("place", place), telemetry.L("policy", policy))
}

// flushRegistrations arms gauges for rows created since the last feed,
// outside the watchdog lock (see registerPlace).
func (w *Watchdog) flushRegistrations() {
	w.mu.Lock()
	reg := w.reg
	pending := w.regPending
	w.regPending = nil
	w.mu.Unlock()
	if reg == nil {
		return
	}
	for _, place := range pending {
		w.registerPlace(reg, place)
	}
}
