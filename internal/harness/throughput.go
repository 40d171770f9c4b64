package harness

import (
	"fmt"
	"time"

	"pera/internal/appraiser"
	"pera/internal/evidence"
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
// harness walks every packet through the UC1 testbed, then streams each
// delivered chain into a worker pool and reports packets/sec over that
// appraisal phase alone — the concurrency counterpart of the Fig. 3
// stage costs.

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
	// during the walk (the on-switch analogue of the memo).
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

	// Planes are attached before the first packet, so they cover the
	// walk (the on-switch half) and the appraisal both; the pool reports
	// to the registry, the tracer and the ledger too. With a Registry
	// the result carries the run's final snapshot. The caller owns the
	// ledger writer and must Close it to flush the chain.
	Planes
	// Spans enables in-band hop spans on every switch — the observatory
	// overhead the BenchmarkThroughput_Observe variants measure.
	Spans pera.SpanConfig
	// Recorder, when non-nil, is scraped every recorderEvery submissions
	// of the timed appraisal phase and once after it — the
	// flight-recorder overhead BenchmarkThroughput_Recorder measures.
	Recorder *recorder.Recorder
	// Profiler, when non-nil, wraps the timed appraisal phase in one
	// deterministic CPU-profile capture (profiler.CaptureWhile) so the
	// run's /profile.json attributes the phase's samples to RATS stages
	// — the continuous-profiling overhead BenchmarkThroughput_Profile
	// measures.
	Profiler *profiler.Profiler
}

// recorderEvery is how many submissions the timed phase makes between
// flight-recorder scrapes.
const recorderEvery = 256

// ThroughputCorpus walks o.Packets attested packets through the UC1
// testbed (bank → sw1 → sw2 → dpi → sw3 → client, chained in-band
// evidence) with o's planes attached, and returns one appraisal job per
// delivered packet. Packet i travels on flow i mod o.Flows under that
// flow's one session nonce, so a flow's chain bytes repeat packet to
// packet — the high-inertia re-presentation the switches' Sign memo and
// the appraiser's verification memo absorb — while every job holds its
// own decoded chain. The returned testbed's appraiser is provisioned to
// appraise the jobs; the cache is the switches' shared evidence cache.
// Exported so the benchmarks can time the appraisal phase alone.
func ThroughputCorpus(o ThroughputOptions) ([]appraiser.Job, *usecases.Testbed, *evidence.Cache, error) {
	flows := max(o.Flows, 1)
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
	o.Planes.Attach(tb, cache)
	nonces := make([][]byte, flows)
	for f := range nonces {
		nonces[f] = tb.NextNonce("tp")
	}
	jobs := make([]appraiser.Job, o.Packets)
	for i := range jobs {
		f := i % flows
		hdr, err := usecases.SendUC1(tb, nonces[f], true, 40000+uint64(f), []byte("tp-data"))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("harness: packet %d (flow %d): %w", i, f, err)
		}
		// Nonce-less jobs: replay protection is per attestation session,
		// not per packet, so the timed phase measures pure appraisal.
		jobs[i] = appraiser.Job{Subject: "bank→client path", Evidence: hdr.Evidence}
	}
	return jobs, tb, cache, nil
}

// RunThroughput walks the corpus, then times its appraisal: from the
// first Submit to a pool of o.Workers workers (GOMAXPROCS when <= 0)
// until Close has drained it. The verdict counts are the pool's own.
func RunThroughput(o ThroughputOptions) (*ThroughputResult, error) {
	jobs, tb, cache, err := ThroughputCorpus(o)
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
	var st appraiser.PoolStats
	var elapsed time.Duration
	// CaptureWhile and Scrape are nil-safe: without a profiler the phase
	// runs unobserved; with one, the whole phase lands in one CPU window.
	o.Profiler.CaptureWhile(func() {
		start := time.Now()
		for i, job := range jobs {
			if i > 0 && i%recorderEvery == 0 {
				o.Recorder.Scrape()
			}
			pool.Submit(job)
		}
		st = pool.Close()
		elapsed = time.Since(start)
	})
	o.Recorder.Scrape()

	res := &ThroughputResult{
		Workers: pool.Workers(), Packets: o.Packets, Flows: o.Flows,
		Pass: st.Pass, Fail: st.Fail, Errors: st.Errors,
		Elapsed:     elapsed,
		Speedup:     1.0,
		MemoEnabled: o.Memo,
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

// RunThroughputSweep runs RunThroughput at each worker count (sharing
// nothing between runs — each gets a fresh testbed and appraiser) and
// reports speedup relative to the first entry. Wall-clock speedup
// requires GOMAXPROCS >= the worker count; on a single-core host the
// sweep is flat and the memo comparison carries the win. Instruments
// re-register under the same names, so a live endpoint scraping
// o.Registry always shows the current generation of the sweep.
func RunThroughputSweep(workerCounts []int, o ThroughputOptions) ([]ThroughputResult, error) {
	rows := make([]ThroughputResult, 0, len(workerCounts))
	for _, w := range workerCounts {
		o.Workers = w
		r, err := RunThroughput(o)
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
