package harness

import (
	"fmt"
	"time"

	"pera/internal/appraiser"
	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/pera"
	"pera/internal/profiler"
	"pera/internal/recorder"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// Throughput harness: the off-switch half of the pipeline under load.
// Evidence Create/Sign happens per packet on the switches; the relying
// party's Verify/Appraise stage must keep up with the aggregate rate of
// every attested flow, and it is the half we can scale with cores. This
// harness drives the UC1 testbed to produce a realistic corpus of chained
// path evidence, then appraises it on a worker pool and reports
// packets/sec — the concurrency counterpart of the Fig. 3 stage costs.

// ThroughputResult reports one appraisal-throughput measurement.
type ThroughputResult struct {
	Workers int
	Packets int
	Flows   int

	Pass   uint64
	Fail   uint64
	Errors uint64

	Elapsed       time.Duration
	PacketsPerSec float64
	// Speedup is relative to the first entry of a sweep (1.0 standalone).
	Speedup float64

	MemoEnabled bool
	MemoHits    uint64
	MemoMisses  uint64
	MemoHitRate float64
	// CacheHitRate is the switches' high-inertia evidence cache hit rate
	// during corpus generation (the on-switch analogue of the memo).
	CacheHitRate float64

	// Telemetry is the end-of-run registry snapshot when the run was
	// instrumented (ThroughputOptions.Registry non-nil): per-stage
	// histograms and per-component counters alongside the end-to-end
	// number above. Nil for uninstrumented runs.
	Telemetry *telemetry.Snapshot `json:",omitempty"`
}

// ThroughputOptions parameterizes one throughput measurement.
type ThroughputOptions struct {
	Workers int
	Packets int
	Flows   int
	Memo    bool

	// Registry, when non-nil, has every pipeline component report into
	// it: switches (counters + sign/verify histograms), the appraiser
	// (verify histogram), the pool (queue depth, per-worker appraisal
	// latency), the evidence cache, the verification memo and the
	// network. The run's final snapshot lands in ThroughputResult.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records per-packet RATS stage spans for
	// sampled flows across the switches and the appraisal pool.
	Tracer *telemetry.FlowTracer
	// Audit, when non-nil, records every RATS lifecycle event of the run
	// — corpus generation and appraisal both — on the hash-chained audit
	// ledger: switches, evidence cache, verification memo, appraiser and
	// pool all emit. The caller owns the writer and must Close it to
	// flush the chain.
	Audit *auditlog.Writer
	// Spans enables in-band hop spans on every switch — the observatory
	// overhead the BenchmarkThroughput_Observe variants measure.
	Spans pera.SpanConfig
	// Collector, when non-nil, shadows the client host (ingesting span
	// trails) and observes every appraisal verdict.
	Collector *observatory.Collector
	// Watchdog, when non-nil, consumes the run's cache events and
	// appraisal verdicts (teeing them to Collector when both are set) —
	// the trust-decay overhead BenchmarkThroughput_SLO measures.
	Watchdog *freshness.Watchdog
	// Recorder, when non-nil, is scraped every recorderEvery packets
	// during the timed appraisal phase — the flight-recorder overhead
	// BenchmarkThroughput_Recorder measures.
	Recorder *recorder.Recorder
	// Profiler, when non-nil, wraps the timed appraisal phase in one
	// deterministic CPU-profile capture (profiler.CaptureWhile) so the
	// run's /profile.json attributes the phase's samples to RATS stages
	// — the continuous-profiling overhead BenchmarkThroughput_Profile
	// measures.
	Profiler *profiler.Profiler
}

// ThroughputCorpus sends one attested packet per flow through the UC1
// testbed (bank → sw1 → sw2 → dpi → sw3 → client, chained in-band
// evidence) and replicates the delivered chains across `packets` jobs.
// Within a flow the chain bytes are identical packet to packet — exactly
// the high-inertia re-presentation the verification memo exploits. The
// returned testbed's appraiser is provisioned to appraise the jobs; the
// cache is the switches' shared evidence cache. Exported so the
// benchmarks can time the appraisal phase without the generation cost.
func ThroughputCorpus(packets, flows int) ([]appraiser.Job, *usecases.Testbed, *evidence.Cache, error) {
	return throughputCorpus(ThroughputOptions{Packets: packets, Flows: flows})
}

// recorderEvery is how many packets the timed phase appraises between
// flight-recorder scrapes.
const recorderEvery = 256

// throughputCorpus is ThroughputCorpus with the run's planes attached
// before any traffic flows, so the Sign-stage histograms, trace spans
// and ledger records cover corpus generation (the on-switch half of the
// pipeline) as well as the appraisal.
func throughputCorpus(o ThroughputOptions) ([]appraiser.Job, *usecases.Testbed, *evidence.Cache, error) {
	packets, flows := o.Packets, o.Flows
	if flows <= 0 {
		flows = 1
	}
	cache := evidence.NewCache()
	tb, err := usecases.NewTestbed(pera.Config{
		InBand:      true,
		Composition: evidence.Chained,
		Cache:       cache,
		Spans:       o.Spans,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if o.Memo {
		tb.Appraiser.EnableMemo(0)
	}
	Planes{
		Registry: o.Registry, Tracer: o.Tracer, Audit: o.Audit,
		Collector: o.Collector, Watchdog: o.Watchdog,
	}.Attach(tb, cache)
	chains := make([]*evidence.Evidence, flows)
	for f := 0; f < flows; f++ {
		hdr, err := usecases.SendUC1(tb, tb.NextNonce("tp"), true, 40000+uint64(f), []byte("tp-data"))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("harness: flow %d: %w", f, err)
		}
		chains[f] = hdr.Evidence
	}
	jobs := make([]appraiser.Job, packets)
	for i := range jobs {
		// Nonce-less jobs: replay protection is per attestation session,
		// not per packet, so the timed phase measures pure appraisal.
		jobs[i] = appraiser.Job{Subject: "bank→client path", Evidence: chains[i%flows]}
	}
	return jobs, tb, cache, nil
}

// RunThroughput measures appraisal throughput at the given pool width
// with the verification memo enabled (the production configuration).
func RunThroughput(workers, packets, flows int) (*ThroughputResult, error) {
	return RunThroughputMemo(workers, packets, flows, true)
}

// RunThroughputMemo is RunThroughput with explicit memo control, so the
// benchmarks can isolate the memoization win from the worker scaling.
func RunThroughputMemo(workers, packets, flows int, memo bool) (*ThroughputResult, error) {
	return RunThroughputOpts(ThroughputOptions{Workers: workers, Packets: packets, Flows: flows, Memo: memo})
}

// RunThroughputOpts is the fully-parameterized throughput run. With a
// Registry attached, every stage of the pipeline reports in and the
// result carries the final telemetry snapshot; the timed appraisal phase
// is otherwise identical to the uninstrumented run.
func RunThroughputOpts(o ThroughputOptions) (*ThroughputResult, error) {
	jobs, tb, cache, err := throughputCorpus(o)
	if err != nil {
		return nil, err
	}
	a := tb.Appraiser
	pool := appraiser.NewPool(a, o.Workers)
	if o.Registry != nil {
		pool.Instrument(o.Registry)
	}
	pool.SetTracer(o.Tracer)
	pool.SetAudit(o.Audit)
	start := time.Now()
	var results []appraiser.Result
	appraise := func() {
		if o.Recorder != nil {
			// Appraise in chunks with a scrape between each, so the timed
			// phase pays the real steady-state recorder cost at a
			// deterministic cadence.
			results = make([]appraiser.Result, 0, len(jobs))
			for lo := 0; lo < len(jobs); lo += recorderEvery {
				hi := lo + recorderEvery
				if hi > len(jobs) {
					hi = len(jobs)
				}
				results = append(results, pool.AppraiseAll(jobs[lo:hi])...)
				o.Recorder.Scrape()
			}
		} else {
			results = pool.AppraiseAll(jobs)
		}
	}
	// CaptureWhile is nil-safe: without a profiler the phase runs
	// unobserved; with one, the whole phase lands in one CPU window.
	o.Profiler.CaptureWhile(appraise)
	elapsed := time.Since(start)
	pool.Close()

	res := &ThroughputResult{
		Workers: pool.Workers(), Packets: o.Packets, Flows: o.Flows,
		Elapsed:     elapsed,
		Speedup:     1.0,
		MemoEnabled: o.Memo,
	}
	for _, r := range results {
		switch {
		case r.Err != nil:
			res.Errors++
		case r.Certificate.Verdict:
			res.Pass++
		default:
			res.Fail++
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		res.PacketsPerSec = float64(o.Packets) / s
	}
	if o.Memo {
		ms := a.MemoStats()
		res.MemoHits, res.MemoMisses, res.MemoHitRate = ms.Hits, ms.Misses, ms.HitRate()
	}
	res.CacheHitRate = cache.Stats().HitRate()
	if o.Registry != nil {
		snap := o.Registry.Snapshot()
		res.Telemetry = &snap
	}
	return res, nil
}

// RunThroughputSweep measures throughput at each worker count (sharing
// nothing between runs — each gets a fresh testbed and appraiser) and
// reports speedup relative to the first entry. Note that wall-clock
// speedup requires GOMAXPROCS >= the worker count; on a single-core host
// the sweep is flat and the memo comparison carries the win.
func RunThroughputSweep(workerCounts []int, packets, flows int, memo bool) ([]ThroughputResult, error) {
	return RunThroughputSweepOpts(workerCounts, ThroughputOptions{Packets: packets, Flows: flows, Memo: memo})
}

// RunThroughputSweepOpts is RunThroughputSweep with telemetry options.
// Each run re-creates its testbed; instruments re-register under the
// same names, so a live endpoint scraping o.Registry always shows the
// current generation of the sweep.
func RunThroughputSweepOpts(workerCounts []int, o ThroughputOptions) ([]ThroughputResult, error) {
	rows := make([]ThroughputResult, 0, len(workerCounts))
	for _, w := range workerCounts {
		ro := o
		ro.Workers = w
		r, err := RunThroughputOpts(ro)
		if err != nil {
			return nil, err
		}
		if len(rows) > 0 && r.PacketsPerSec > 0 {
			r.Speedup = r.PacketsPerSec / rows[0].PacketsPerSec
		}
		rows = append(rows, *r)
	}
	return rows, nil
}
