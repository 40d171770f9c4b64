package profiler

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/freshness"
	"pera/internal/telemetry"
)

// Kinds of profile artifact the profiler captures each window. CPU is
// the attributed one; the others are point-in-time runtime snapshots
// taken at the end of each window so an incident bundle carries the
// contention and allocation picture alongside the CPU attribution.
var Kinds = []string{"cpu", "heap", "mutex", "block", "goroutine"}

// The capture ring, the top-function table and the regression
// detector.
const (
	// ringLen bounds how many capture windows are retained.
	ringLen = 8
	// topN bounds the top-function table.
	topN = 10
	// stageDeltaMin is the share increase (absolute, 0..1) of one
	// stage's CPU that flags a profile_regression.
	stageDeltaMin = 0.15
	// funcDeltaMin is the same threshold for one function.
	funcDeltaMin = 0.20
	// minSeconds is the minimum CPU observed in a window before it is
	// diffed at all — near-idle windows have meaningless shares. The
	// first window that reaches it is pinned as the baseline when none
	// was pinned explicitly.
	minSeconds = 0.010
)

// Options tunes a Profiler.
type Options struct {
	// Service names the process in summaries (default "pera").
	Service string
	// Window is one CPU capture window for the Start loop (default 2s).
	Window time.Duration
	// Registry, when non-nil, receives the pera_profile_* instruments.
	Registry *telemetry.Registry
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Service == "" {
		o.Service = "pera"
	}
	if o.Window <= 0 {
		o.Window = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// stageKey identifies one attributed (stage, place) series.
type stageKey struct{ stage, place string }

// window is one ingested capture: the decoded aggregate of a single CPU
// window.
type window struct {
	tsNS    int64
	durNS   int64
	total   float64 // CPU seconds in the window
	labeled float64 // CPU seconds under pera_stage labels
	samples int
	stages  map[stageKey]float64
	funcs   map[string]float64
}

// artifact is one raw captured profile.
type artifact struct {
	kind string
	tsNS int64
	data []byte
}

// Profiler owns the capture loop, the artifact ring, the decoded window
// ring, the cumulative stage metrics and the baseline diff engine. All
// public methods are nil-safe, matching the tracer/recorder wiring
// idiom.
type Profiler struct {
	opts Options

	mu        sync.Mutex
	artifacts map[string][]artifact // newest last, bounded by ringLen
	windows   []window              // newest last, bounded by ringLen
	baseline  *window               // pinned diff reference (aggregated)
	findings  []Finding             // newest last, bounded ring
	breaching map[string]bool       // finding keys currently over threshold

	// stageTotals accumulates CPU seconds per (stage, place) across the
	// profiler's lifetime — the pera_profile_stage_cpu_seconds series.
	stageTotals map[stageKey]*float64
	reg         *telemetry.Registry

	sinkMu sync.RWMutex
	sinks  []freshness.Sink

	captures    atomic.Uint64
	samples     atomic.Uint64
	regressions atomic.Uint64
	cpuErrs     atomic.Uint64

	quit, done chan struct{}
	started    atomic.Bool
	// capturing serializes CPU windows: runtime/pprof allows one CPU
	// profile per process, so Start's loop and CaptureWhile must not
	// overlap.
	capturing sync.Mutex
}

// New builds a profiler. Wire sinks with AddSink, then either Start the
// capture loop (daemons) or drive CaptureWhile directly (harness,
// benchmarks, tests).
func New(opts Options) *Profiler {
	opts = opts.withDefaults()
	p := &Profiler{
		opts:        opts,
		artifacts:   make(map[string][]artifact),
		stageTotals: make(map[stageKey]*float64),
		breaching:   make(map[string]bool),
		reg:         opts.Registry,
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	p.instrument()
	return p
}

// AddSink attaches a freshness sink for profile_regression findings —
// typically the same LogSink/AuditSink set the watchdog and
// recorder publish to, so all three planes page through one pipeline.
func (p *Profiler) AddSink(s freshness.Sink) {
	if p == nil || s == nil {
		return
	}
	p.sinkMu.Lock()
	p.sinks = append(p.sinks, s)
	p.sinkMu.Unlock()
}

func (p *Profiler) now() int64 { return p.opts.Clock().UnixNano() }

// Start arms the stage labels and launches the wall-clock capture loop:
// one CPU window per Options.Window, runtime snapshots at each window's
// end. Idempotent.
func (p *Profiler) Start() {
	if p == nil || !p.started.CompareAndSwap(false, true) {
		return
	}
	telemetry.ArmProfiling(true)
	go func() {
		defer close(p.done)
		for {
			select {
			case <-p.quit:
				return
			default:
			}
			if err := p.captureWindow(p.opts.Window); err != nil {
				p.cpuErrs.Add(1)
				// Another CPU profile is active (e.g. /debug/pprof/profile);
				// back off one window instead of spinning.
				select {
				case <-p.quit:
					return
				case <-time.After(p.opts.Window):
				}
			}
		}
	}()
}

// Close stops the capture loop and disarms the stage labels. Safe on a
// nil or never-started profiler.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	if p.started.Load() {
		select {
		case <-p.quit:
		default:
			close(p.quit)
		}
		<-p.done
	}
	telemetry.ArmProfiling(false)
}

// captureWindow runs one wall-clock CPU window.
func (p *Profiler) captureWindow(d time.Duration) error {
	return p.captureFunc(func() {
		select {
		case <-p.quit:
		case <-time.After(d):
		}
	})
}

// CaptureWhile profiles the execution of fn as one capture window: CPU
// profiling starts, fn runs with stage labels armed, profiling stops and
// the window is ingested (decoded, attributed, diffed). This is the
// deterministic entry point the harness and benchmarks use instead of
// the wall-clock Start loop.
func (p *Profiler) CaptureWhile(fn func()) error {
	if p == nil {
		fn()
		return nil
	}
	armed := telemetry.ProfilingArmed()
	if !armed {
		telemetry.ArmProfiling(true)
		defer telemetry.ArmProfiling(false)
	}
	return p.captureFunc(fn)
}

// captureFunc is the shared capture core: one CPU window around fn, then
// the runtime-snapshot kinds, then ingest.
func (p *Profiler) captureFunc(fn func()) error {
	p.capturing.Lock()
	defer p.capturing.Unlock()
	var cpu bytes.Buffer
	start := p.now()
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		fn()
		return fmt.Errorf("profiler: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	end := p.now()

	p.storeArtifact("cpu", end, cpu.Bytes())
	for _, kind := range []string{"heap", "mutex", "block", "goroutine"} {
		if prof := pprof.Lookup(kind); prof != nil {
			var buf bytes.Buffer
			if err := prof.WriteTo(&buf, 0); err == nil {
				p.storeArtifact(kind, end, buf.Bytes())
			}
		}
	}
	return p.ingestCPU(cpu.Bytes(), start, end)
}

// storeArtifact appends one raw profile to its kind's ring.
func (p *Profiler) storeArtifact(kind string, tsNS int64, data []byte) {
	if len(data) == 0 {
		return
	}
	p.mu.Lock()
	ring := append(p.artifacts[kind], artifact{kind: kind, tsNS: tsNS, data: data})
	if len(ring) > ringLen {
		ring = ring[len(ring)-ringLen:]
	}
	p.artifacts[kind] = ring
	p.mu.Unlock()
}

// Artifact returns the newest raw profile of the given kind and its
// capture timestamp.
func (p *Profiler) Artifact(kind string) (data []byte, tsNS int64, ok bool) {
	if p == nil {
		return nil, 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ring := p.artifacts[kind]
	if len(ring) == 0 {
		return nil, 0, false
	}
	a := ring[len(ring)-1]
	return a.data, a.tsNS, true
}

// attribute decodes one raw CPU profile into a window: samples go to
// stages by their pera_stage/pera_place labels and to leaf functions.
func attribute(data []byte) (window, error) {
	prof, err := ParseProfile(data)
	if err != nil {
		return window{}, err
	}
	vi := prof.ValueIndex("cpu")
	w := window{
		tsNS:   prof.TimeNanos,
		durNS:  prof.DurationNS,
		stages: make(map[stageKey]float64),
		funcs:  make(map[string]float64),
	}
	for i := range prof.Samples {
		s := &prof.Samples[i]
		if vi < 0 || vi >= len(s.Values) {
			continue
		}
		sec := float64(s.Values[vi]) / 1e9
		w.total += sec
		w.samples++
		w.funcs[prof.LeafFunction(s)] += sec
		if stage := s.Labels[telemetry.ProfStageKey]; stage != "" {
			w.labeled += sec
			w.stages[stageKey{stage, s.Labels[telemetry.ProfPlaceKey]}] += sec
		}
	}
	return w, nil
}

// ingestCPU attributes one CPU window, timed by the capture's clock,
// folds it into the ring and cumulative metrics, and runs the diff.
func (p *Profiler) ingestCPU(data []byte, startNS, endNS int64) error {
	w, err := attribute(data)
	if err != nil {
		return err
	}
	w.tsNS, w.durNS = endNS, endNS-startNS

	p.mu.Lock()
	p.windows = append(p.windows, w)
	if len(p.windows) > ringLen {
		p.windows = p.windows[len(p.windows)-ringLen:]
	}
	for k, sec := range w.stages {
		tot, ok := p.stageTotals[k]
		if !ok {
			tot = new(float64)
			p.stageTotals[k] = tot
			if p.reg != nil {
				p.reg.RegisterFunc("pera_profile_stage_cpu_seconds", telemetry.KindCounter,
					func() float64 { p.mu.Lock(); defer p.mu.Unlock(); return *tot },
					telemetry.L("stage", k.stage), telemetry.L("place", k.place))
			}
		}
		*tot += sec
	}
	if p.baseline == nil && w.total >= minSeconds {
		base := w
		p.baseline = &base
	}
	base := p.baseline
	p.mu.Unlock()

	p.captures.Add(1)
	p.samples.Add(uint64(w.samples))
	if base != nil && base.tsNS != w.tsNS {
		p.evaluate(base, &w)
	}
	return nil
}

// SetBaseline pins the aggregate of the current window ring as the diff
// reference. Subsequent windows whose stage or function CPU shares grow
// past the configured deltas emit profile_regression findings.
func (p *Profiler) SetBaseline() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := mergeWindows(p.windows)
	if agg.samples == 0 {
		return
	}
	p.baseline = &agg
}

// mergeWindows folds several capture windows into one aggregate.
func mergeWindows(ws []window) window {
	agg := window{stages: make(map[stageKey]float64), funcs: make(map[string]float64)}
	for i := range ws {
		w := &ws[i]
		if agg.tsNS < w.tsNS {
			agg.tsNS = w.tsNS
		}
		agg.durNS += w.durNS
		agg.total += w.total
		agg.labeled += w.labeled
		agg.samples += w.samples
		for k, v := range w.stages {
			agg.stages[k] += v
		}
		for f, v := range w.funcs {
			agg.funcs[f] += v
		}
	}
	return agg
}

// Captures returns how many windows have been ingested.
func (p *Profiler) Captures() uint64 {
	if p == nil {
		return 0
	}
	return p.captures.Load()
}

// Regressions returns how many profile_regression findings have fired.
func (p *Profiler) Regressions() uint64 {
	if p == nil {
		return 0
	}
	return p.regressions.Load()
}

// instrument registers the profiler's fixed instruments (the per-stage
// counters register lazily as stages are first observed).
func (p *Profiler) instrument() {
	reg := p.reg
	if reg == nil {
		return
	}
	reg.RegisterFunc("pera_profile_captures_total", telemetry.KindCounter,
		func() float64 { return float64(p.captures.Load()) })
	reg.RegisterFunc("pera_profile_samples_total", telemetry.KindCounter,
		func() float64 { return float64(p.samples.Load()) })
	reg.RegisterFunc("pera_profile_regressions_total", telemetry.KindCounter,
		func() float64 { return float64(p.regressions.Load()) })
	reg.RegisterFunc("pera_profile_capture_errors_total", telemetry.KindCounter,
		func() float64 { return float64(p.cpuErrs.Load()) })
	reg.RegisterFunc("pera_profile_labeled_share", telemetry.KindGauge, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.windows) == 0 {
			return 0
		}
		w := &p.windows[len(p.windows)-1]
		if w.total <= 0 {
			return 0
		}
		return w.labeled / w.total
	})
	reg.RegisterFunc("pera_profile_hotspot_share", telemetry.KindGauge, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.windows) == 0 {
			return 0
		}
		w := &p.windows[len(p.windows)-1]
		var top float64
		for _, v := range w.funcs {
			if v > top {
				top = v
			}
		}
		if w.total <= 0 {
			return 0
		}
		return top / w.total
	})
}

// sortedStages renders a window's stage map as a share-sorted table.
func sortedStages(w *window) []StageCost {
	out := make([]StageCost, 0, len(w.stages))
	for k, sec := range w.stages {
		sc := StageCost{Stage: k.stage, Place: k.place, Seconds: sec}
		if w.total > 0 {
			sc.Share = sec / w.total
		}
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Place < out[j].Place
	})
	return out
}

// sortedFuncs renders a window's flat-function map as a top-N table.
func sortedFuncs(w *window) []FuncCost {
	out := make([]FuncCost, 0, len(w.funcs))
	for name, sec := range w.funcs {
		fc := FuncCost{Name: name, Seconds: sec}
		if w.total > 0 {
			fc.Share = sec / w.total
		}
		out = append(out, fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}
