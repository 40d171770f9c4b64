package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json names
// them.
var endToEnd = []metricDef{
	{"verdicts_per_s", "1/s"},
	{"verdict_p50_us", "us"},
	{"cpu_us_per_verdict", "us"},
	{"allocs_per_verdict", "count"},
	{"bytes_per_verdict", "B"},
	{"evidence_bytes_per_verdict", "B"},
	{"setup_s", "s"},
}

// endToEndDetail are end-to-end readings the report prints beside them.
// The pooled tail has no bound: on a shared host, how late the pacer ran
// in a few seconds of a run decides it (README, host notes). host_speed is
// the median speed of this host against the reference host's.
var endToEndDetail = []metricDef{
	{"verdict_p90_us", "us"},
	{"verdict_p99_us", "us"},
	{"open_loop_requests", "count"},
	{"host_speed", "ratio"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json names them:
// the layers every workload calls, so each value is measured on each.
var perLayer = []metricDef{
	{"pera.hop_us.sw1", "us"},
	{"pera.path_p99_us", "us"},
	{"appraiser.verdict_us", "us"},
	{"appraiser.verdict_p99_us", "us"},
	{"appraiser.inflight_max", "count"},
	{"pera.sign_ops_per_pkt", "count"},
	{"pera.inband_bytes_per_pkt", "B"},
	{"appraiser.retained_bytes_per_verdict", "B"},
	{"evidence.cache_hit_ratio", "ratio"},
	{"evidence.memo_hit_ratio", "ratio"},
	{"auditlog.records_per_pkt", "count"},
	{"auditlog.dropped", "count"},
	{"telemetry.spans_per_pkt", "count"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.cpu_util", "ratio"},
	{"loadgen.gc_per_kverdict", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// layerDetail are the per-layer metrics of layers only some workloads
// call. The trace report prints the ones the workload measured.
var layerDetail = []metricDef{
	{"usecases.compile_us", "us"},
	{"pisa.frame_us", "us"},
	{"pera.wrap_us", "us"},
	{"pera.unwrap_us", "us"},
	{"pera.hop_us.sw2", "us"},
	{"pera.hop_us.sw3", "us"},
	{"netsim.dpi_us", "us"},
	{"appraiser.submit_block_us", "us"},
	{"rats.challenge_us", "us"},
	{"rats.appraise_us", "us"},
	{"rats.appraise_p99_us", "us"},
	{"rats.cert_bytes", "B"},
	{"loadgen.traced_lag_p99_us", "us"},
}

// result is one workload run.
type result struct {
	phases     []*phase
	metrics    map[string]float64
	crossCheck error
}

func (r *result) attempted() int64 {
	var n int64
	for _, p := range r.phases {
		n += p.issued.Load()
	}
	return n
}

func (r *result) failed() int64 {
	var n int64
	for _, p := range r.phases {
		n += p.failed()
	}
	return n
}

// probes returns how many negative probes ran and how many were rejected.
func (r *result) probes() (ran, caught int64) {
	for _, p := range r.phases {
		p.mu.Lock()
		ran += p.probes
		caught += p.caught
		p.mu.Unlock()
	}
	return ran, caught
}

func (r *result) totals() totals {
	var t totals
	for _, p := range r.phases {
		p.mu.Lock()
		t.pass += p.outcome[outPass]
		t.fail += p.outcome[outFail]
		t.replayed += p.outcome[outReplayed]
		p.mu.Unlock()
	}
	return t
}

func (r *result) correct() bool {
	return r.failed() == 0 && r.crossCheck == nil
}

// output selects the end-to-end or the per-layer metrics for the result
// line.
func (r *result) output(trace bool) output {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := output{
		Correct:   r.correct(),
		Attempted: r.attempted(),
		Failed:    r.failed(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// report prints the run's metrics, the correctness oracle's counts and
// the load generator's validity checks for a reader.
func (r *result) report(w io.Writer, trace bool) {
	defs := append(append([]metricDef(nil), endToEnd...), endToEndDetail...)
	if trace {
		defs = append(append([]metricDef(nil), perLayer...), layerDetail...)
	}
	for _, d := range defs {
		if v, ok := r.metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	ran, caught := r.probes()
	fmt.Fprintf(w, "  %-28s %14.6f ratio (%d of %d; probes rejected %d of %d)\n",
		"error_ratio", ratio(float64(r.failed()), float64(r.attempted())), r.failed(), r.attempted(), caught, ran)
	for _, p := range r.phases {
		if p.firstErr != nil {
			fmt.Fprintln(w, "  first error:", p.firstErr)
			break
		}
	}
	if r.crossCheck != nil {
		fmt.Fprintln(w, "  count cross-check FAILED:", r.crossCheck)
	} else {
		fmt.Fprintln(w, "  count cross-check ok")
	}
	if v := r.metrics["loadgen.lag_p99_us"]; v >= 100 {
		fmt.Fprintf(w, "  warning: open-loop pacing lag p99 %.1f us >= 100 us\n", v)
	}
	if v := r.metrics["loadgen.cpu_util"]; v < 0.9 {
		fmt.Fprintf(w, "  warning: saturation kept the processors %.0f%% busy (< 90%%)\n", 100*v)
	}
	if v, ok := r.metrics["trace.coverage"]; ok && v < 0.9 {
		fmt.Fprintf(w, "  warning: layer spans cover %.0f%% of end-to-end latency (< 90%%)\n", 100*v)
	}
}

func newSystem(spec *workloadSpec, workdir string) (system, error) {
	if spec.kind == kindRATS {
		s, err := newRatsTCP()
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	s, err := newInproc(spec, workdir)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// setUp constructs the workload's full set-up and returns it with the
// seconds the construction took. It starts from a collected heap, as a
// daemon's set-up does, so it does not pay for collecting earlier garbage.
func setUp(spec *workloadSpec, workdir string) (system, float64, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := newSystem(spec, workdir)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, secs, nil
}

// timeSetUps constructs and discards n set-ups and returns each one's
// seconds.
func timeSetUps(spec *workloadSpec, workdir string, n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		s, secs, err := setUp(spec, workdir)
		if err != nil {
			return nil, err
		}
		s.close()
		times = append(times, secs)
	}
	return times, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// runWorkload runs one workload: set-up, warm-up, then o.seconds of
// alternating slices of at most a second, a closed-loop saturation slice
// and then a fixed-rate open-loop slice. With o.trace the slices get
// three quarters of o.seconds and a traced open loop the last quarter.
// Alternating spreads every metric's samples over the whole run, so a
// slow spell of a shared host hits some slices of each metric rather than
// all of one; the time metrics are medians over slices, so a few such
// slices cannot decide them. For the same reason o.setups more set-ups
// are timed before each pair of slices.
//
// The calibrator measures the host's speed before the first slice and
// after each one. Every time metric is scaled from the mean speed around
// its slice to the reference host's, so it reads what the reference host
// would have done.
func runWorkload(o options) (*result, error) {
	spec := lookupWorkload(o.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sys, _, err := setUp(spec, o.workdir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	payloads := makePayloads(o.seed)
	clients := make([]*client, clientsN)
	for i := range clients {
		clients[i] = &client{id: i}
	}
	res := &result{metrics: map[string]float64{}}
	addPhase := func(name string, probes bool, tr *tracer) *phase {
		p := &phase{name: name, in: newInputs(spec, o.seed, uint64(len(res.phases)), probes, payloads), tr: tr}
		res.phases = append(res.phases, p)
		return p
	}
	measured, traced := o.seconds, 0.0
	if o.trace {
		measured, traced = o.seconds*3/4, o.seconds/4
	}
	half := time.Duration(measured / 2 * float64(time.Second))
	slice := min(time.Second, half)
	calTime := slice / calShare
	slices := max(1, int(math.Round(half.Seconds()/(slice+calTime).Seconds())))
	m := res.metrics

	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	if o.warmup > 0 {
		warm := addPhase("warmup", true, nil)
		closedLoop(sys, clients, warm, o.warmup)
		warm.drain(drainTimeout)
		cal.measure(calTime)
	}

	var rates, cpuPer, p50s, rawP50s, lat, lags, setupTimes, scales, mallocs, allocBytes []float64
	var satCPU time.Duration
	var satVerdicts, verdicts, openVerdicts, gcs float64
	var evBytes, evCount int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heap0 := ms0.HeapAlloc
	speed := cal.measure(calTime)
	// around returns the mean host speed over the slice just run, and
	// measures the speed at its end for the next slice.
	around := func() hostSpeed {
		next := cal.measure(calTime)
		s := speed.mean(next)
		speed = next
		scales = append(scales, s.wallScale())
		return s
	}
	for i := 0; i < slices; i++ {
		times, err := timeSetUps(spec, o.workdir, o.setups)
		if err != nil {
			return nil, err
		}
		for _, t := range times {
			setupTimes = append(setupTimes, t*speed.wallScale())
		}

		// Saturation: verdicts finished within the slice, and CPU.
		sat := addPhase(fmt.Sprintf("saturation %d", i), true, nil)
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		closedLoop(sys, clients, sat, slice)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		sat.drain(drainTimeout)
		s := around()
		n := float64(sat.verdictsOnTime())
		rates = append(rates, n/slice.Seconds()/s.wallScale())
		cpuPer = append(cpuPer, ratio(float64(cpu)/1e3, n)*s.cpuScale())
		satCPU += cpu
		satVerdicts += n
		gcs += float64(ms1.NumGC - ms0.NumGC)
		verdicts += float64(sat.completed.Load())

		// Open loop: latency, pacing lag and allocation over a fixed count.
		open := addPhase(fmt.Sprintf("open %d", i), true, nil)
		runtime.ReadMemStats(&ms0)
		openLoop(sys, clients[0], open, spec.rate, slice)
		open.drain(drainTimeout)
		runtime.ReadMemStats(&ms1)
		s = around()
		sliceLat := micros(open.lat)
		rawP50s = append(rawP50s, percentile(sliceLat, 0.50))
		for j := range sliceLat {
			sliceLat[j] *= s.wallScale()
		}
		lat = append(lat, sliceLat...)
		p50s = append(p50s, percentile(sliceLat, 0.50))
		lags = append(lags, micros(open.lag)...)
		done := float64(open.completed.Load())
		mallocs = append(mallocs, ratio(float64(ms1.Mallocs-ms0.Mallocs), done))
		allocBytes = append(allocBytes, ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), done))
		openVerdicts += done
		evBytes += open.evBytes.Load()
		evCount += open.evCount.Load()
	}
	verdicts += openVerdicts
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["setup_s"] = percentile(setupTimes, 0.50)
	m["verdicts_per_s"] = percentile(rates, 0.50)
	m["cpu_us_per_verdict"] = percentile(cpuPer, 0.50)
	m["verdict_p50_us"] = percentile(p50s, 0.50)
	m["verdict_p90_us"] = percentile(lat, 0.90)
	m["verdict_p99_us"] = percentile(lat, 0.99)
	m["open_loop_requests"] = float64(len(lat))
	m["host_speed"] = percentile(scales, 0.50)
	m["allocs_per_verdict"] = percentile(mallocs, 0.50)
	m["bytes_per_verdict"] = percentile(allocBytes, 0.50)
	m["evidence_bytes_per_verdict"] = ratio(float64(evBytes), float64(evCount))
	m["appraiser.retained_bytes_per_verdict"] = ratio(float64(int64(ms1.HeapAlloc)-int64(heap0)), verdicts)
	m["loadgen.lag_p99_us"] = percentile(lags, 0.99)
	m["loadgen.cpu_util"] = ratio(satCPU.Seconds(), float64(slices)*slice.Seconds()*float64(runtime.GOMAXPROCS(0)))
	m["loadgen.gc_per_kverdict"] = ratio(gcs, satVerdicts/1000)

	if o.trace {
		tr := newTracer(int(spec.rate*traced) * spansPerRequest)
		if err := traceLayers(o, spec, sys, clients[0], addPhase("traced", false, tr), time.Duration(traced*float64(time.Second)), percentile(rawP50s, 0.50), m); err != nil {
			return nil, err
		}
	}
	res.crossCheck = sys.finish(res.totals())
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// traceLayers runs the traced open-loop phase p for d and derives the
// per-layer metrics from its spans and from the layers' counters.
// untracedP50, the base of the tracing overhead, is the median of the
// untraced open-loop slices' p50s as measured, not scaled.
func traceLayers(o options, spec *workloadSpec, sys system, c *client, p *phase, d time.Duration, untracedP50 float64, m map[string]float64) error {
	c0 := sys.counters()
	sys.setTracer(p.tr)
	openLoop(sys, c, p, spec.rate, d)
	p.drain(drainTimeout)
	sys.setTracer(nil)
	c1 := sys.counters()

	times, err := p.tr.layerTimes()
	if err != nil {
		return err
	}
	for k, v := range times {
		m[k] = v
	}
	m["trace.overhead_pct"] = 100 * (ratio(percentile(micros(p.lat), 0.50), untracedP50) - 1)
	pkts := float64(p.issued.Load())
	per := func(a, b uint64) float64 { return ratio(float64(a-b), pkts) }
	m["pera.sign_ops_per_pkt"] = per(c1.signOps, c0.signOps)
	m["pera.inband_bytes_per_pkt"] = per(c1.inbandBytes, c0.inbandBytes)
	m["evidence.cache_hit_ratio"] = ratio(float64(c1.cacheHits-c0.cacheHits), float64(c1.cacheHits+c1.cacheMisses-c0.cacheHits-c0.cacheMisses))
	m["evidence.memo_hit_ratio"] = ratio(float64(c1.memoHits-c0.memoHits), float64(c1.memoHits+c1.memoMisses-c0.memoHits-c0.memoMisses))
	m["auditlog.records_per_pkt"] = per(c1.auditRecords+c1.auditDropped, c0.auditRecords+c0.auditDropped)
	m["auditlog.dropped"] = float64(c1.auditDropped - c0.auditDropped)
	m["telemetry.spans_per_pkt"] = per(c1.spans, c0.spans)
	m["appraiser.inflight_max"] = float64(c1.inflightMax)
	if spec.kind == kindRATS {
		m["rats.cert_bytes"] = per(c1.certBytes, c0.certBytes)
	}
	m["loadgen.traced_lag_p99_us"] = percentile(micros(p.lag), 0.99)
	if o.traceOut != "" {
		if err := p.tr.writeFile(o.traceOut); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	return nil
}
