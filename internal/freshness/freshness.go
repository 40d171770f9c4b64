// Package freshness is the trust-decay watchdog for PERA's Inertia axis
// (paper Fig. 4). Caching evidence cuts attestation overhead, but it
// means every appraisal verdict rests on claims of some *age* — and a
// place that silently stops re-attesting keeps passing appraisals on
// the strength of its last good measurement until someone notices. The
// watchdog is that someone.
//
// It consumes two existing feeds:
//
//   - evidence-cache lifecycle events (evidence.Cache.SetNotify): every
//     Put stamps a candidate freshness instant for the producing place;
//     Hit/Expire events track how hard the inertia window is working.
//   - appraiser verdicts (it is a telemetry.StageSink subscribed to the
//     appraiser's appraise envelope with Appraiser.Subscribe, beside
//     the audit ledger and the observatory collector): a verdict covers
//     exactly the places whose signatures the appraiser verified (the
//     envelope's Signers), and a clean one *commits* their pending
//     freshness — evidence is only "fresh trust" once it has appraised
//     clean.
//
// From these it maintains per-(place, policy) freshness state, a
// coverage map classifying every place fresh / stale / lapsed /
// never-attested against a staleness budget derived from the Fig. 4
// Inertia knob (the cache TTL), and an alert rules engine
// (threshold + burn-rate with hysteresis) whose firing alerts trigger
// active re-attestation probes over the RATS Fig. 1 machinery. An alert
// resolves only after fresh evidence appraises clean.
package freshness

import (
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/evidence"
	"pera/internal/telemetry"
)

// Status classifies one place's evidence age against the budget.
type Status string

const (
	// StatusFresh: age < Budget.FreshFor — trust is current.
	StatusFresh Status = "fresh"
	// StatusStale: FreshFor <= age < LapsedAfter — budget is burning.
	StatusStale Status = "stale"
	// StatusLapsed: age >= LapsedAfter — the place's trust has decayed
	// past the budget; verdicts involving it rest on expired claims.
	StatusLapsed Status = "lapsed"
	// StatusNever: the place is tracked but no evidence of it has ever
	// appraised clean.
	StatusNever Status = "never-attested"
)

// Budget is the staleness budget: how old committed evidence may grow
// before a place counts stale, then lapsed. Boundaries are half-open on
// the stale side (age == FreshFor is already stale), matching the
// evidence cache's expiry-tick semantics.
type Budget struct {
	FreshFor    time.Duration
	LapsedAfter time.Duration
}

// DeriveBudget maps the Fig. 4 Inertia knob onto a staleness budget. A
// healthy place re-produces evidence every ttl (the cache expiry forces
// fresh measurement), and every verdict over its signature commits it.
// FreshFor allows one period plus half again for scheduling jitter;
// LapsedAfter is two missed refresh periods beyond that — a place that
// quiet is no longer merely late.
func DeriveBudget(ttl time.Duration) Budget {
	return Budget{FreshFor: ttl * 3 / 2, LapsedAfter: ttl * 3}
}

// The watchdog's policy label, burn-rate window and alert engine. The
// SLO target is typed float64 so that 1 − sloTarget rounds as float64
// arithmetic does.
const (
	// policy names the appraisal policy this watchdog guards (label on
	// rows, metrics, and alert records).
	policy = "AP1"
	// window is the per-place sliding window of status samples the
	// burn-rate rule evaluates over.
	window = 64
	// minSamples gates the burn-rate rule until the window has data.
	minSamples = 8
	// sloTarget is the fraction of window samples required fresh (error
	// budget = 1 − sloTarget).
	sloTarget float64 = 0.9
	// burnMax fires the burn-rate rule when observed badness consumes
	// the error budget this many times faster than allowed.
	burnMax = 2
	// fireAfter is the hysteresis on the firing edge: consecutive
	// breaching evaluations before an alert fires.
	fireAfter = 2
	// resolveAfter is the hysteresis on the resolving edge: consecutive
	// clean evaluations (status fresh again) before a firing alert
	// resolves.
	resolveAfter = 2
	// alertRing bounds retained alert history.
	alertRing = 128
	// probeEvery re-probes a still-firing alert every N evaluations (the
	// first probe goes out on the firing transition).
	probeEvery = 8
)

// Config sets the watchdog's budget and clock. The zero value is
// usable: budget derived from DetailTables inertia, real clock.
type Config struct {
	// Budget is the staleness budget; zero derives it from
	// DetailTables' inertia.
	Budget Budget
	// Clock drives all age arithmetic; default time.Now. Simulations
	// share one fake clock between cache and watchdog.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Budget == (Budget{}) {
		c.Budget = DeriveBudget(evidence.DetailTables.Inertia())
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// row is one (place, policy) freshness ledger entry. All access under
// Watchdog.mu.
type row struct {
	place   string
	tracked bool // explicitly Track()ed: never-attested detection applies

	lastFresh time.Time // last instant committed by a clean appraisal / probe
	pending   time.Time // evidence produced, awaiting a clean verdict

	puts, hits, expires uint64 // cache lifecycle counters
	verdicts, fails     uint64 // appraisal outcomes covering this place
	probes, probeOK     uint64 // active re-attestation probes issued / clean

	win     []bool // sliding status samples, true = outside budget
	winHead int
	winN    int
	winBad  int
}

// Watchdog is the trust-decay watchdog. Construct with New; it is safe
// for concurrent use by the cache notify hook, the appraiser's verdict
// feed, and telemetry scrapes.
type Watchdog struct {
	name string

	mu     sync.Mutex
	cfg    Config
	rows   map[string]*row
	rowSeq []string // first-seen order
	evals  uint64
	sinks  []Sink
	prober Prober

	// alert engine state (see alerts.go)
	states        map[stateKey]*alertState
	ring          []*Alert
	ringHead      int
	alertSeq      uint64
	firedTotal    uint64
	resolvedTotal uint64
	probesTotal   uint64
	probeOKTotal  uint64

	probing atomic.Bool // re-entrancy guard: probes run watchdog-observed appraisals

	reg        *telemetry.Registry
	ageHist    *telemetry.Histogram
	regPending []string // places awaiting per-place gauge registration
}

// New builds a watchdog named name (its identity on snapshots and audit
// records).
func New(name string, cfg Config) *Watchdog {
	return &Watchdog{
		name:   name,
		cfg:    cfg.withDefaults(),
		rows:   make(map[string]*row),
		states: make(map[stateKey]*alertState),
	}
}

// Configure replaces the watchdog's configuration. Intended for the
// window between construction and the first feed (perasim builds the
// watchdog before the harness knows the simulated clock); rows and
// alert state are preserved but re-evaluated under the new budget.
func (w *Watchdog) Configure(cfg Config) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cfg = cfg.withDefaults()
}

// Name returns the watchdog's identity.
func (w *Watchdog) Name() string { return w.name }

// Budget returns the effective staleness budget.
func (w *Watchdog) Budget() Budget {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cfg.Budget
}

// Track declares places the watchdog expects to attest. Tracked places
// appear on the coverage map immediately (as never-attested until their
// first clean appraisal), which is what catches a place that never
// shows up at all.
func (w *Watchdog) Track(places ...string) {
	w.mu.Lock()
	for _, p := range places {
		w.rowLocked(p).tracked = true
	}
	w.mu.Unlock()
	w.flushRegistrations()
}

// AddSink attaches an alert sink (stderr log, audit ledger, the
// recorder…). Sinks are invoked outside the watchdog lock.
func (w *Watchdog) AddSink(s Sink) {
	if s == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sinks = append(w.sinks, s)
}

// SetProber attaches the active re-attestation prober. Nil detaches
// (alerts then resolve only via in-band refresh).
func (w *Watchdog) SetProber(p Prober) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.prober = p
}

// rowLocked returns (creating if needed) the row for place.
func (w *Watchdog) rowLocked(place string) *row {
	if r, ok := w.rows[place]; ok {
		return r
	}
	r := &row{place: place, win: make([]bool, window)}
	w.rows[place] = r
	w.rowSeq = append(w.rowSeq, place)
	w.regPending = append(w.regPending, place)
	return r
}

// CacheEvent ingests one evidence-cache lifecycle event; wire it with
// cache.SetNotify(wd.CacheEvent). It runs under the cache's shard lock,
// so it only updates counters — no evaluation, no sink I/O.
func (w *Watchdog) CacheEvent(e evidence.CacheEvent) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.rowLocked(e.Place)
	switch e.Kind {
	case evidence.CachePut:
		r.puts++
		if e.At.After(r.pending) {
			r.pending = e.At
		}
	case evidence.CacheHit:
		r.hits++
	case evidence.CacheExpire:
		r.expires++
	}
}

// StageOpened implements telemetry.StageSink; an appraisal's start
// carries nothing the watchdog reads.
func (w *Watchdog) StageOpened(telemetry.StageEvent) {}

// StageEnded implements telemetry.StageSink for the appraiser's appraise
// envelope. The verdict covers the places whose signatures the
// appraiser verified (ev.Signers); a clean one commits their pending
// freshness — this is the moment cached evidence becomes committed
// trust. Every verdict also drives one evaluation of the alert rules.
// An appraisal that failed operationally (Err, e.g. a nonce replay)
// rendered no verdict and is skipped.
func (w *Watchdog) StageEnded(ev telemetry.StageEvent) {
	if w == nil || ev.Err != "" || ev.Verdict == "" {
		return
	}
	verdict, failPlace := ev.Verdict == "PASS", ev.Prov.Place
	w.mu.Lock()
	for _, place := range ev.Signers {
		r := w.rowLocked(place)
		r.verdicts++
		if verdict && r.pending.After(r.lastFresh) {
			r.lastFresh = r.pending
		}
	}
	if !verdict && failPlace != "" {
		w.rowLocked(failPlace).fails++
	}
	events, probes := w.evaluateLocked()
	w.mu.Unlock()

	w.flushRegistrations()
	w.dispatch(events)
	w.runProbes(probes)
}

// RecordFresh commits a fresh-trust instant for place directly — the
// probe path: re-attestation evidence that appraised clean outside any
// in-band flow. Zero at means "now".
func (w *Watchdog) RecordFresh(place string, at time.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if at.IsZero() {
		at = w.cfg.Clock()
	}
	r := w.rowLocked(place)
	if at.After(r.lastFresh) {
		r.lastFresh = at
	}
	events, probes := w.evaluateLocked()
	w.mu.Unlock()

	w.flushRegistrations()
	w.dispatch(events)
	w.runProbes(probes)
}

// Tick forces one evaluation of the alert rules against the current
// clock — for callers pacing the watchdog off a timer rather than a
// verdict stream.
func (w *Watchdog) Tick() {
	w.mu.Lock()
	events, probes := w.evaluateLocked()
	w.mu.Unlock()
	w.dispatch(events)
	w.runProbes(probes)
}

// statusLocked classifies one row at now. Boundaries are half-open on
// the decayed side, matching the cache's expiry-tick fix: age ==
// FreshFor is already stale.
func (w *Watchdog) statusLocked(r *row, now time.Time) (Status, time.Duration) {
	if r.lastFresh.IsZero() {
		return StatusNever, 0
	}
	age := now.Sub(r.lastFresh)
	switch {
	case age < w.cfg.Budget.FreshFor:
		return StatusFresh, age
	case age < w.cfg.Budget.LapsedAfter:
		return StatusStale, age
	default:
		return StatusLapsed, age
	}
}

// pushSample folds one budget-compliance sample into the row's sliding
// window (true = outside budget).
func (r *row) pushSample(bad bool) {
	if r.winN < len(r.win) {
		r.win[r.winN] = bad
		r.winN++
		if bad {
			r.winBad++
		}
		return
	}
	if r.win[r.winHead] {
		r.winBad--
	}
	r.win[r.winHead] = bad
	if bad {
		r.winBad++
	}
	r.winHead = (r.winHead + 1) % len(r.win)
}

// dispatch emits events to every sink, outside the watchdog lock.
func (w *Watchdog) dispatch(events []Event) {
	if len(events) == 0 {
		return
	}
	w.mu.Lock()
	sinks := append([]Sink(nil), w.sinks...)
	w.mu.Unlock()
	for _, e := range events {
		for _, s := range sinks {
			s.Emit(e)
		}
	}
}
