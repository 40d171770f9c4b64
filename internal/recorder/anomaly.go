package recorder

import (
	"fmt"
	"math"
	"time"

	"pera/internal/telemetry"
)

// Detector rule names, recorded in the anomaly event's Rule field as
// "anomaly:<name>" and in the audit ledger's target.
const (
	// RuleRobustZ fires when a gauge (or histogram-derived quantile)
	// deviates from its windowed median by more than Z robust standard
	// deviations (1.4826·MAD), confirmed by the EWMA baseline.
	RuleRobustZ = "robust-z"
	// RuleRateSpike fires when a counter's per-second rate of change
	// jumps above its windowed baseline — the verify-failure signature
	// of a UC1 program swap.
	RuleRateSpike = "rate-spike"
	// RuleLocalization fires when the observatory collector's rolling
	// window first attributes a compromise to a specific place. It is
	// the place-naming signal an incident bundle is built around.
	RuleLocalization = "localization"
)

// DefaultWatch is the series the detectors evaluate when the operator
// names none: verdict/verify latency quantiles, verification failures,
// evidence-cache misses, freshness age and the two queue depths — the
// key series called out in ISSUE 8.
var DefaultWatch = []string{
	"pera_appraise_seconds_p99",
	"pera_verify_seconds_p99",
	"pera_verify_fails_total",
	"pera_evidence_cache_misses_total",
	"pera_freshness_oldest_age_seconds",
	"pera_pool_queue_depth",
	"pera_audit_queue_depth",
}

// The detectors' thresholds and memory. The float thresholds are typed
// float64 so that expressions over them, such as zTrip*alpha/2, round
// at every step as float64 arithmetic does.
const (
	// zTrip is the robust z-score trip threshold.
	zTrip float64 = 6
	// alpha is the EWMA smoothing factor.
	alpha float64 = 0.3
	// warmup is the minimum samples per series before evaluation:
	// detectors never judge a cold start.
	warmup = 12
	// baselineLen is how many fine-ring samples feed the median/MAD
	// baseline.
	baselineLen = 60
	// minSigma floors the robust deviation so an all-constant baseline
	// (MAD 0 — e.g. a counter that has never incremented) still yields
	// a finite z for a genuine jump without tripping on float jitter.
	minSigma float64 = 1e-6
	// relSigma floors the robust deviation at this fraction of the
	// baseline median. Latency quantiles cluster so tightly that their
	// MAD is microseconds and ordinary jitter scores hundreds of σ; the
	// relative floor makes deviation meaningful in proportion to the
	// level, while zero-based baselines (a counter that has never
	// failed) keep their absolute minSigma sensitivity.
	relSigma float64 = 0.1
	// cooldown suppresses re-firing the same series for this long so
	// one incident does not become an anomaly storm.
	cooldown = 30 * time.Second
)

// Anomaly is one detector trip.
type Anomaly struct {
	TSNS     int64   `json:"ts_ns"`
	Rule     string  `json:"rule"` // robust-z | rate-spike | localization
	SeriesID string  `json:"series,omitempty"`
	Place    string  `json:"place,omitempty"`
	Value    float64 `json:"value"`    // observed value (or rate) that tripped
	Baseline float64 `json:"baseline"` // windowed median it deviated from
	Z        float64 `json:"z"`        // robust z-score at the trip
	Reason   string  `json:"reason"`
}

// detState is the per-series EWMA/rate memory.
type detState struct {
	ewma       float64
	ewmaInit   bool
	lastV      float64
	lastTS     int64
	rateInit   bool
	rates      []float64 // counter-rate window (bounded by baselineLen)
	samples    int
	mutedUntil int64
}

// Engine runs the detectors over a Store. It is driven by the Recorder
// on each scrape tick; it keeps only O(watched series) state of its own
// — baselines come from the store's rings.
type Engine struct {
	watch []string
	store *Store

	states map[string]*detState

	// scratch reused across Evaluate calls; the engine is driven from
	// the recorder's single scrape goroutine.
	ids    []string
	window []float64
	base   []float64 // baseline copy handed to medianMAD (sorted in place)
	devs   []float64 // absolute-deviation scratch for the MAD

	evals     uint64
	anomalies uint64
}

// NewEngine builds an engine over store that evaluates the watched
// metric names (or exact series IDs); an empty list selects
// DefaultWatch. Histogram metrics are watched through their derived
// _p50/_p99/_count series names.
func NewEngine(store *Store, watch []string) *Engine {
	if len(watch) == 0 {
		watch = DefaultWatch
	}
	return &Engine{watch: watch, store: store, states: make(map[string]*detState)}
}

// sigma converts a MAD into the robust standard deviation, floored
// absolutely (minSigma) and relative to the baseline level (relSigma).
func sigma(med, mad float64) float64 {
	s := 1.4826 * mad
	if rel := relSigma * math.Abs(med); s < rel {
		s = rel
	}
	if s < minSigma {
		s = minSigma
	}
	return s
}

// median-and-MAD over vals; vals is partially reordered in place.
func medianMAD(vals []float64) (med, mad float64) {
	return medianMADScratch(vals, make([]float64, 0, len(vals)))
}

// medianMADScratch is medianMAD with a caller-owned deviation buffer, so
// per-scrape evaluations reuse the engine's scratch instead of
// allocating per series. Medians come from quickselect rather than a
// full sort — the detectors run over every watched series every scrape,
// and selection keeps that walk O(window) per series.
func medianMADScratch(vals, devs []float64) (med, mad float64) {
	med = medianSelect(vals)
	devs = devs[:0]
	for _, v := range vals {
		devs = append(devs, math.Abs(v-med))
	}
	return med, medianSelect(devs)
}

// medianSelect returns the median (interpolating the two middle values
// for even lengths, as a sorted-order q=0.5 interpolation), reordering vals.
func medianSelect(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return selectKth(vals, n/2)
	}
	hi := selectKth(vals, n/2)
	// selectKth partitions: vals[:n/2] holds the n/2 smallest, so the
	// lower middle is its maximum.
	lo := vals[0]
	for _, v := range vals[1 : n/2] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// selectKth places the kth-smallest value at vals[k] (Hoare quickselect)
// and returns it; elements left of k end up <=, right of k >=.
func selectKth(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		p := vals[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for vals[i] < p {
				i++
			}
			for vals[j] > p {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return vals[k]
}

// baselineMedianMAD copies vals into the engine's scratch and returns
// its median/MAD without allocating in steady state.
func (e *Engine) baselineMedianMAD(vals []float64) (med, mad float64) {
	e.base = append(e.base[:0], vals...)
	if cap(e.devs) < len(e.base) {
		e.devs = make([]float64, 0, cap(e.base))
	}
	return medianMADScratch(e.base, e.devs)
}

// Evaluate runs every detector once against the newest samples and
// returns the trips. Called by the Recorder after each Observe.
func (e *Engine) Evaluate(nowNS int64) []Anomaly {
	if e == nil {
		return nil
	}
	e.evals++
	e.ids = e.store.matchIDs(e.ids[:0], e.watch)
	var out []Anomaly
	for _, id := range e.ids {
		if a := e.evalSeries(nowNS, id); a != nil {
			out = append(out, *a)
			e.anomalies++
		}
	}
	return out
}

func (e *Engine) evalSeries(nowNS int64, id string) *Anomaly {
	var kind telemetry.Kind
	var place string
	var ok bool
	e.window, kind, place, ok = e.store.window(e.window[:0], id, baselineLen)
	if !ok || len(e.window) == 0 {
		return nil
	}
	st := e.states[id]
	if st == nil {
		st = &detState{}
		e.states[id] = st
	}
	cur := e.window[len(e.window)-1]

	if kind == telemetry.KindCounter {
		return e.evalRate(nowNS, id, place, st, cur)
	}

	// Gauge path: robust z against the windowed median, EWMA as the
	// smoothed confirmation baseline.
	st.samples++
	if !st.ewmaInit {
		st.ewma, st.ewmaInit = cur, true
	} else {
		st.ewma = alpha*cur + (1-alpha)*st.ewma
	}
	if st.samples < warmup || len(e.window) < warmup {
		return nil
	}
	// Baseline excludes the newest sample so a genuine step change is
	// judged against history, not against itself.
	med, mad := e.baselineMedianMAD(e.window[:len(e.window)-1])
	sigma := sigma(med, mad)
	z := math.Abs(cur-med) / sigma
	// EWMA confirmation: the smoothed series must also have moved, so a
	// single-sample glitch on a flat series does not page.
	ez := math.Abs(st.ewma-med) / sigma
	if z < zTrip || ez < zTrip*alpha/2 {
		return nil
	}
	if nowNS < st.mutedUntil {
		return nil
	}
	st.mutedUntil = nowNS + int64(cooldown)
	return &Anomaly{
		TSNS: nowNS, Rule: RuleRobustZ, SeriesID: id, Place: place,
		Value: cur, Baseline: med, Z: z,
		Reason: fmt.Sprintf("%s=%.4g deviates %.1fσ from median %.4g (MAD %.4g)", id, cur, z, med, mad),
	}
}

// evalRate turns a cumulative counter into a per-second rate series and
// trips on positive spikes against the rate's own median/MAD baseline.
func (e *Engine) evalRate(nowNS int64, id, place string, st *detState, cur float64) *Anomaly {
	if !st.rateInit {
		st.lastV, st.lastTS, st.rateInit = cur, nowNS, true
		return nil
	}
	dt := float64(nowNS-st.lastTS) / float64(time.Second)
	if dt <= 0 {
		return nil
	}
	rate := (cur - st.lastV) / dt
	st.lastV, st.lastTS = cur, nowNS
	if rate < 0 {
		// Counter reset (component re-created by a sweep); restart the
		// rate baseline rather than treating the wrap as a spike.
		st.rates = st.rates[:0]
		st.samples = 0
		return nil
	}
	st.rates = append(st.rates, rate)
	if len(st.rates) > baselineLen {
		copy(st.rates, st.rates[1:])
		st.rates = st.rates[:len(st.rates)-1]
	}
	st.samples++
	if st.samples < warmup {
		return nil
	}
	med, mad := e.baselineMedianMAD(st.rates[:len(st.rates)-1])
	sigma := sigma(med, mad)
	if rate <= med {
		return nil // only positive spikes: failures appearing, not stopping
	}
	z := (rate - med) / sigma
	if z < zTrip {
		return nil
	}
	if nowNS < st.mutedUntil {
		return nil
	}
	st.mutedUntil = nowNS + int64(cooldown)
	return &Anomaly{
		TSNS: nowNS, Rule: RuleRateSpike, SeriesID: id, Place: place,
		Value: rate, Baseline: med, Z: z,
		Reason: fmt.Sprintf("%s rate %.4g/s is %.1fσ above median %.4g/s", id, rate, z, med),
	}
}

// Stats reports engine health for telemetry.
func (e *Engine) Stats() (evals, anomalies uint64) {
	if e == nil {
		return
	}
	return e.evals, e.anomalies
}
