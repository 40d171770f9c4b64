package recorder

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/auditlog"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/telemetry"
)

// Config tunes a Recorder.
type Config struct {
	// Interval is the scrape tick for Start (default 1s). Harness runs
	// drive Scrape directly instead, so simulations are deterministic.
	Interval time.Duration
	// Service names the process in bundles and OTLP exports (default
	// "pera").
	Service string
	// Watch lists the metric names (or exact series IDs) the anomaly
	// detectors evaluate. Empty selects DefaultWatch.
	Watch  []string
	Bundle BundlerConfig
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Service == "" {
		c.Service = "pera"
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Recorder is the flight-recorder facade: it owns the history store,
// drives the anomaly engine on each scrape, watches the observatory's
// compromise localization, fans anomaly events out to the freshness
// sink pipeline, and triggers incident bundles. All methods are
// nil-safe so wiring code needs no guards, like the tracer and ledger.
type Recorder struct {
	cfg    Config
	store  *Store
	engine *Engine

	reg        *telemetry.Registry
	tracer     *telemetry.FlowTracer
	collector  *observatory.Collector
	watchdog   *freshness.Watchdog
	audit      *auditlog.Writer
	ledgerPath string
	configInfo []byte
	profiler   ProfileSource

	sinkMu sync.RWMutex
	sinks  []freshness.Sink

	// scrapeMu serializes Scrape: the ticker goroutine and any direct
	// harness calls must not interleave engine evaluation.
	scrapeMu sync.Mutex

	// bundleMu serializes capture + debounce state; alerts arrive from
	// the watchdog's goroutine while scrapes run elsewhere.
	bundleMu     sync.Mutex
	lastBundleNS int64
	locSeen      bool

	quit, done chan struct{}
	started    atomic.Bool

	anomalies atomic.Uint64
	bundles   atomic.Uint64
	debounced atomic.Uint64
	bundleErr atomic.Uint64
	reclaimed atomic.Uint64
	lastPath  atomic.Value // string: newest bundle path
}

// New builds a recorder. Wire sources with the Set* methods, sinks with
// AddSink, then either Start the ticker or drive Scrape directly.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	cfg.Bundle = cfg.Bundle.withDefaults()
	store := NewStore()
	return &Recorder{
		cfg:    cfg,
		store:  store,
		engine: NewEngine(store, cfg.Watch),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// SetRegistry sets the scraped telemetry registry.
func (r *Recorder) SetRegistry(reg *telemetry.Registry) {
	if r != nil {
		r.reg = reg
	}
}

// SetTracer sets the span ring bundled as trace_otlp.json.
func (r *Recorder) SetTracer(t *telemetry.FlowTracer) {
	if r != nil {
		r.tracer = t
	}
}

// SetCollector sets the observatory collector: its snapshot is bundled
// and its compromise localization is watched as an anomaly source.
func (r *Recorder) SetCollector(c *observatory.Collector) {
	if r != nil {
		r.collector = c
	}
}

// SetWatchdog sets the freshness watchdog whose coverage and alert
// surfaces are bundled. Attach r.Sink() to the watchdog separately to
// trigger bundles on alert firings.
func (r *Recorder) SetWatchdog(w *freshness.Watchdog) {
	if r != nil {
		r.watchdog = w
	}
}

// SetLedger wires the audit writer (flushed synchronously before each
// capture) and the ledger file the tail is read from.
func (r *Recorder) SetLedger(w *auditlog.Writer, path string) {
	if r != nil {
		r.audit = w
		r.ledgerPath = path
	}
}

// ProfileSource is the slice of the continuous profiler the recorder
// consumes: newest raw artifacts for bundling plus the rendered
// baseline diff. internal/profiler.(*Profiler) implements it; an
// interface keeps the recorder free of a profiler dependency (and the
// import cycle a direct one would create through the sink pipeline).
type ProfileSource interface {
	Artifact(kind string) (data []byte, tsNS int64, ok bool)
	TopDiffJSON() []byte
}

// SetProfiler wires the continuous profiler so incident bundles carry
// cpu.pprof, mutex.pprof and top_diff.json. Attach r.Sink() to the
// profiler separately to trigger bundles on profile regressions.
func (r *Recorder) SetProfiler(p ProfileSource) {
	if r != nil {
		r.profiler = p
	}
}

// SetConfigInfo records the process configuration (flag values) that
// lands in every bundle as config.json.
func (r *Recorder) SetConfigInfo(kv map[string]string) {
	if r == nil || len(kv) == 0 {
		return
	}
	b, err := json.MarshalIndent(kv, "", " ")
	if err == nil {
		r.configInfo = b
	}
}

// AddSink attaches a sink for anomaly events — typically the same
// LogSink/AuditSink instances the watchdog publishes to, so
// anomalies and alerts share one pipeline.
func (r *Recorder) AddSink(s freshness.Sink) {
	if r == nil || s == nil {
		return
	}
	r.sinkMu.Lock()
	r.sinks = append(r.sinks, s)
	r.sinkMu.Unlock()
}

// Store exposes the history store (for /history.json and tests).
func (r *Recorder) Store() *Store {
	if r == nil {
		return nil
	}
	return r.store
}

// alertSink adapts the Recorder into a freshness.Sink: watchdog alert
// firings and profiler regression findings trigger incident bundles.
// Anomaly events are ignored here — the recorder originated them and
// has already bundled.
type alertSink struct{ r *Recorder }

func (s alertSink) Emit(e freshness.Event) {
	kind := ""
	switch e.Kind {
	case "fired":
		kind = "alert"
	case freshness.KindProfile:
		kind = "profile"
	default:
		return
	}
	s.r.maybeBundle(Trigger{
		Kind: kind, Rule: e.Alert.Rule, Place: e.Alert.Place,
		Reason: e.Alert.Reason, TSNS: s.r.now(),
	}, nil)
}

// Sink returns the adapter to register on the watchdog (AddSink) so
// firing alerts capture bundles.
func (r *Recorder) Sink() freshness.Sink {
	if r == nil {
		return nil
	}
	return alertSink{r}
}

func (r *Recorder) now() int64 { return r.cfg.Clock().UnixNano() }

// Scrape runs one recorder tick: snapshot the registry into the store,
// evaluate the anomaly detectors, check the observatory localization,
// and dispatch/bundle anything that tripped. Harnesses call it directly
// for determinism; Start drives it on a wall-clock ticker.
func (r *Recorder) Scrape() {
	if r == nil || r.reg == nil {
		return
	}
	r.scrapeMu.Lock()
	now := r.now()
	r.store.Observe(now, r.reg.Snapshot())
	anomalies := r.engine.Evaluate(now)
	if a := r.checkLocalization(now); a != nil {
		anomalies = append(anomalies, *a)
	}
	r.scrapeMu.Unlock()
	for i := range anomalies {
		r.dispatchAnomaly(&anomalies[i])
	}
}

// checkLocalization fires once when the collector's rolling-window
// analysis first attributes a compromise to a place — the signal that
// names the switch in a UC1 bundle.
func (r *Recorder) checkLocalization(nowNS int64) *Anomaly {
	if r.collector == nil || r.locSeen {
		return nil
	}
	loc := r.collector.Localized()
	if loc == nil {
		return nil
	}
	r.locSeen = true
	return &Anomaly{
		TSNS: nowNS, Rule: RuleLocalization, Place: loc.Place,
		Value: loc.WindowRate, Baseline: loc.BaselineRate,
		Reason: fmt.Sprintf("observatory localized compromise at %s: %s", loc.Place, loc.Reason),
	}
}

// dispatchAnomaly publishes one anomaly through the freshness sink
// pipeline (stderr log, sealed audit ledger) and captures a
// bundle for it.
func (r *Recorder) dispatchAnomaly(a *Anomaly) {
	r.anomalies.Add(1)
	e := freshness.Event{
		Kind: freshness.KindAnomaly,
		Alert: freshness.Alert{
			Rule:      "anomaly:" + a.Rule,
			Place:     a.Place,
			State:     freshness.StateFiring,
			Reason:    a.Reason,
			FiredAtNS: a.TSNS,
		},
	}
	r.sinkMu.RLock()
	sinks := r.sinks
	r.sinkMu.RUnlock()
	for _, s := range sinks {
		s.Emit(e)
	}
	aj, _ := json.MarshalIndent(a, "", " ")
	r.maybeBundle(Trigger{
		Kind: "anomaly", Rule: a.Rule, Place: a.Place, Reason: a.Reason, TSNS: a.TSNS,
	}, aj)
}

// TriggerBundle captures a bundle on demand (attestctl / tests),
// bypassing the debounce. Returns the bundle path.
func (r *Recorder) TriggerBundle(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("recorder: not enabled")
	}
	return r.capture(Trigger{Kind: "manual", Reason: reason, TSNS: r.now()}, nil)
}

// maybeBundle captures unless bundling is disabled or debounced. A
// localization trigger bypasses the debounce: it fires at most once per
// run and is the capture that names the compromised place, so a generic
// anomaly bundled moments earlier must not suppress it.
func (r *Recorder) maybeBundle(trig Trigger, anomalyJSON []byte) {
	if r.cfg.Bundle.Dir == "" {
		return
	}
	r.bundleMu.Lock()
	debounced := r.lastBundleNS != 0 && trig.TSNS-r.lastBundleNS < int64(r.cfg.Bundle.Debounce)
	if debounced && trig.Rule != RuleLocalization {
		r.bundleMu.Unlock()
		r.debounced.Add(1)
		return
	}
	r.lastBundleNS = trig.TSNS
	r.bundleMu.Unlock()
	if _, err := r.capture(trig, anomalyJSON); err != nil {
		r.bundleErr.Add(1)
	}
}

// capture gathers every diagnostic surface and writes the archive.
func (r *Recorder) capture(trig Trigger, anomalyJSON []byte) (string, error) {
	if r.cfg.Bundle.Dir == "" {
		return "", fmt.Errorf("recorder: bundling disabled (no directory configured)")
	}
	var cap capture
	cap.anomaly = anomalyJSON
	cap.config = r.configInfo

	// Metric history: full fine-resolution dump of every series, plus
	// the coarse rings appended under a "/coarse" suffix so offline
	// analysis gets both windows.
	cap.history = r.store.Query("", 0, false)
	for _, s := range r.store.Query("", 0, true) {
		s.ID += "/coarse"
		cap.history = append(cap.history, s)
	}

	if r.tracer != nil {
		if spans := r.tracer.Spans(); len(spans) > 0 {
			var buf jsonBuffer
			if err := telemetry.WriteOTLP(&buf, r.cfg.Service, spans); err == nil {
				cap.otlp = buf.b
			}
		}
	}
	if r.collector != nil {
		cap.observatory, _ = json.MarshalIndent(r.collector.Snapshot(), "", " ")
	}
	if r.watchdog != nil {
		cap.coverage, _ = json.MarshalIndent(r.watchdog.Coverage(), "", " ")
		cap.alerts, _ = json.MarshalIndent(r.watchdog.Alerts(), "", " ")
	}
	if r.profiler != nil {
		// Newest captured CPU and mutex profiles plus the rendered
		// baseline diff — the "why did it get slow" half of the bundle.
		cap.profCPU, _, _ = r.profiler.Artifact("cpu")
		cap.profMutex, _, _ = r.profiler.Artifact("mutex")
		cap.profDiff = r.profiler.TopDiffJSON()
	}
	if r.ledgerPath != "" {
		// Synchronous flush so the tail contains the records of this
		// incident (the anomaly_detected record included) rather than
		// racing the writer's periodic flush.
		r.audit.Flush()
		cap.ledgerPath = r.ledgerPath
	}

	path, err := writeBundle(r.cfg.Bundle, r.cfg.Service, trig, cap)
	if err != nil {
		return "", err
	}
	r.bundles.Add(1)
	r.lastPath.Store(path)
	if n := enforceBudget(r.cfg.Bundle.Dir, diskBudget); n > 0 {
		r.reclaimed.Add(uint64(n))
	}
	// Seal the capture itself onto the ledger so the trail records that
	// (and which) diagnostic state was preserved.
	r.audit.Emit(auditlog.Record{
		Event: auditlog.EventIncident, Place: trig.Place, Target: trig.Rule,
		Note: fmt.Sprintf("bundle=%s trigger=%s", path, trig.Kind),
	})
	return path, nil
}

// jsonBuffer is a minimal io.Writer over a byte slice.
type jsonBuffer struct{ b []byte }

func (w *jsonBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Start launches the wall-clock scrape ticker. Idempotent.
func (r *Recorder) Start() {
	if r == nil || !r.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Scrape()
			case <-r.quit:
				return
			}
		}
	}()
}

// Close stops the ticker. Safe on a nil or never-started recorder.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	if r.started.Load() {
		select {
		case <-r.quit:
		default:
			close(r.quit)
		}
		<-r.done
	}
}

// LastBundle returns the newest bundle path written by this recorder
// ("" when none).
func (r *Recorder) LastBundle() string {
	if r == nil {
		return ""
	}
	if p, ok := r.lastPath.Load().(string); ok {
		return p
	}
	return ""
}

// Anomalies returns the number of anomalies dispatched.
func (r *Recorder) Anomalies() uint64 {
	if r == nil {
		return 0
	}
	return r.anomalies.Load()
}

// Bundles returns the number of bundles written.
func (r *Recorder) Bundles() uint64 {
	if r == nil {
		return 0
	}
	return r.bundles.Load()
}

// Instrument publishes recorder health through the registry:
// pera_recorder_* store/bundle counters and pera_anomaly_* engine
// counters, all read lazily at scrape time.
func (r *Recorder) Instrument(reg *telemetry.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.RegisterFunc("pera_recorder_scrapes_total", telemetry.KindCounter, func() float64 {
		s, _, _, _, _ := r.store.Stats()
		return float64(s)
	})
	reg.RegisterFunc("pera_recorder_points_total", telemetry.KindCounter, func() float64 {
		_, p, _, _, _ := r.store.Stats()
		return float64(p)
	})
	reg.RegisterFunc("pera_recorder_series", telemetry.KindGauge, func() float64 {
		_, _, _, n, _ := r.store.Stats()
		return float64(n)
	})
	reg.RegisterFunc("pera_recorder_series_dropped_total", telemetry.KindCounter, func() float64 {
		_, _, d, _, _ := r.store.Stats()
		return float64(d)
	})
	reg.RegisterFunc("pera_recorder_bundles_total", telemetry.KindCounter,
		func() float64 { return float64(r.bundles.Load()) })
	reg.RegisterFunc("pera_recorder_bundles_debounced_total", telemetry.KindCounter,
		func() float64 { return float64(r.debounced.Load()) })
	reg.RegisterFunc("pera_recorder_bundle_errors_total", telemetry.KindCounter,
		func() float64 { return float64(r.bundleErr.Load()) })
	reg.RegisterFunc("pera_recorder_bundles_reclaimed_total", telemetry.KindCounter,
		func() float64 { return float64(r.reclaimed.Load()) })
	reg.RegisterFunc("pera_anomaly_total", telemetry.KindCounter,
		func() float64 { return float64(r.anomalies.Load()) })
	reg.RegisterFunc("pera_anomaly_evals_total", telemetry.KindCounter, func() float64 {
		e, _ := r.engine.Stats()
		return float64(e)
	})
}

// HistoryPath is where Endpoint mounts the history query surface.
const HistoryPath = "/history.json"

// Endpoint returns the /history.json handler for telemetry.Serve:
//
//	/history.json                     → series index
//	/history.json?metric=NAME         → fine history for NAME (all label variants)
//	  &since=5m | &since=<unix_ns>    → trim to a lookback window
//	  &step=10s (≥ coarse step)       → serve the coarse ring instead
func (r *Recorder) Endpoint() telemetry.Endpoint {
	return telemetry.Endpoint{
		Path:    HistoryPath,
		Desc:    "flight-recorder metric history (params: metric, since, step)",
		Handler: http.HandlerFunc(r.handleHistory),
	}
}

func (r *Recorder) handleHistory(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		telemetry.WriteJSONError(w, http.StatusNotFound, "recorder disabled")
		return
	}
	q := req.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Series []SeriesInfo `json:"series"`
		}{r.store.List()})
		return
	}
	var since int64
	if s := q.Get("since"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			since = r.now() - int64(d)
		} else if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			since = n
		} else {
			telemetry.WriteJSONError(w, http.StatusBadRequest,
				"bad since: "+s+" (want a duration like 5m or unix nanoseconds)")
			return
		}
	}
	coarse := false
	if s := q.Get("step"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			telemetry.WriteJSONError(w, http.StatusBadRequest,
				"bad step: "+s+" (want a duration like 1s, 10s)")
			return
		}
		coarse = d >= coarseStep
	}
	series := r.store.Query(metric, since, coarse)
	if len(series) == 0 {
		// Query matches by exact ID or base name; nothing matching means
		// the metric is not recorded here — a 404 the caller can act on,
		// not a 200 with an empty body it has to guess about.
		telemetry.WriteJSONError(w, http.StatusNotFound, "unknown metric: "+metric)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Series []Series `json:"series"`
	}{series})
}
