// Worker-pool appraisal engine: fans evidence chains out to N goroutines
// while preserving per-nonce ordering. This is the verify/appraise half of
// the paper's Fig. 2/3 throughput story — evidence Create/Sign runs at
// dataplane speed on the switch, so the off-switch Verify/Appraise stage
// must scale with cores to keep up.
package appraiser

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/telemetry"
)

// Job is one appraisal request submitted to a Pool.
type Job struct {
	Subject  string
	Evidence *evidence.Evidence
	// Nonce is passed to Appraise (replay-checked when non-empty). Jobs
	// sharing a nonce are guaranteed to be appraised in submission order
	// on the same worker, so replay verdicts are deterministic.
	Nonce []byte
	// Trace, when set, is the submitter's span context (e.g. extracted
	// from a rats frame): the appraisal spans parent under it. When
	// zero, sampled jobs root their flow-derived trace, which still
	// joins the switch-side spans of the same flow.
	Trace telemetry.SpanContext
}

// Result is one appraisal outcome. Index is the submission sequence number
// (0-based), so callers can correlate results with jobs regardless of
// worker interleaving.
type Result struct {
	Index       int
	Certificate *Certificate
	Err         error
}

// PoolStats aggregates verdicts across a pool's lifetime.
type PoolStats struct {
	Jobs   uint64 // jobs completed
	Pass   uint64 // certificates with Verdict true
	Fail   uint64 // certificates with Verdict false
	Errors uint64 // operational errors (e.g. nonce replay)
}

// Pool appraises evidence on a fixed set of worker goroutines.
//
// Dispatch preserves per-nonce ordering: every job is routed to a worker
// chosen by hashing its nonce, so two submissions with the same nonce are
// appraised in submission order (the first wins the replay check, the
// second deterministically gets ErrNonceReplayed). Nonce-less jobs are
// spread round-robin.
type Pool struct {
	a       *Appraiser
	workers int
	queues  []chan poolTask
	wg      sync.WaitGroup

	// OnResult, when set before the first Submit, is invoked from the
	// worker goroutine for every completed job. It must be safe for
	// concurrent use.
	OnResult func(Result)

	next   atomic.Uint64 // submission index + round-robin source
	closed atomic.Bool

	jobs   atomic.Uint64
	pass   atomic.Uint64
	fail   atomic.Uint64
	errors atomic.Uint64

	// planes[i] carries worker i's appraise stage to its latency
	// histogram and the flow tracer; notes[i] is its attribution.
	planes []telemetry.Planes
	notes  []string
	// aud, when attached, receives the pool_drained summary record at
	// Close (per-job appraise/verdict records come from the Appraiser
	// itself, with worker attribution in their notes).
	aud *auditlog.Writer
}

type poolTask struct {
	job  Job
	idx  int
	res  *Result         // AppraiseAll: slot to fill
	done *sync.WaitGroup // AppraiseAll: completion signal
}

// NewPool starts workers goroutines appraising against a. workers <= 0
// selects GOMAXPROCS. Close must be called to release the workers.
func NewPool(a *Appraiser, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		a: a, workers: workers, queues: make([]chan poolTask, workers),
		planes: make([]telemetry.Planes, workers), notes: make([]string, workers),
	}
	for i := range p.queues {
		p.planes[i].Init(a.Name())
		p.notes[i] = "worker " + strconv.Itoa(i)
		p.queues[i] = make(chan poolTask, 64)
		p.wg.Add(1)
		go p.worker(i, p.queues[i])
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Instrument registers the pool's verdict counters, live queue depth and
// per-worker appraisal-latency histograms (pera_appraise_seconds with a
// worker label) with reg.
func (p *Pool) Instrument(reg *telemetry.Registry) {
	for i := range p.planes {
		p.planes[i].SetHistogram(reg.Histogram("pera_appraise_seconds", nil, telemetry.L("worker", strconv.Itoa(i))), telemetry.StageAppraise)
	}
	reg.RegisterFunc("pera_pool_jobs_total", telemetry.KindCounter,
		func() float64 { return float64(p.jobs.Load()) })
	reg.RegisterFunc("pera_pool_pass_total", telemetry.KindCounter,
		func() float64 { return float64(p.pass.Load()) })
	reg.RegisterFunc("pera_pool_fail_total", telemetry.KindCounter,
		func() float64 { return float64(p.fail.Load()) })
	reg.RegisterFunc("pera_pool_errors_total", telemetry.KindCounter,
		func() float64 { return float64(p.errors.Load()) })
	reg.RegisterFunc("pera_pool_workers", telemetry.KindGauge,
		func() float64 { return float64(p.workers) })
	reg.RegisterFunc("pera_pool_queue_depth", telemetry.KindGauge, func() float64 {
		depth := 0
		for _, q := range p.queues {
			depth += len(q)
		}
		return float64(depth)
	})
}

// SetTracer attaches a flow tracer recording appraise/verdict spans for
// sampled flows. Call before the first Submit.
func (p *Pool) SetTracer(tr *telemetry.FlowTracer) {
	for i := range p.planes {
		p.planes[i].SetTracer(tr)
	}
}

// SetAudit attaches the audit ledger for the pool's lifecycle records
// and arms worker attribution on per-job records. Call before the first
// Submit.
func (p *Pool) SetAudit(w *auditlog.Writer) { p.aud = w }

// jobFlowID is the trace correlation ID the appraisal side can see: the
// job nonce (hex) when present — matching the switch side's in-band
// nonce ID — else the first nonce inside the evidence, else the subject.
func jobFlowID(job *Job) string {
	if len(job.Nonce) > 0 {
		return hex.EncodeToString(job.Nonce)
	}
	if n := evidence.FirstNonce(job.Evidence); n != nil {
		return hex.EncodeToString(n)
	}
	return job.Subject
}

func (p *Pool) worker(id int, queue <-chan poolTask) {
	defer p.wg.Done()
	planes := &p.planes[id]
	for t := range queue {
		rec := planes.Recorder()
		flow := ""
		if rec.Detailed() {
			flow = jobFlowID(&t.job)
		}
		rec.Open(telemetry.StageEvent{Stage: telemetry.StageAppraise, Flow: flow, Parent: t.job.Trace})
		attr := ""
		if p.aud != nil {
			attr = p.notes[id]
		}
		cert, err := p.a.appraiseNoted(t.job.Trace, t.job.Subject, t.job.Evidence, t.job.Nonce, attr)
		done := telemetry.StageEvent{Note: p.notes[id]}
		if err != nil {
			done.Err = err.Error()
		} else {
			done.Verdict = verdictString(cert.Verdict)
		}
		rec.Close(done)
		r := Result{Index: t.idx, Certificate: cert, Err: err}
		p.jobs.Add(1)
		switch {
		case err != nil:
			p.errors.Add(1)
		case cert.Verdict:
			p.pass.Add(1)
		default:
			p.fail.Add(1)
		}
		if t.res != nil {
			*t.res = r
		}
		if p.OnResult != nil {
			p.OnResult(r)
		}
		if t.done != nil {
			t.done.Done()
		}
	}
}

// route picks the worker queue for a job: nonce-affine for non-empty
// nonces, round-robin otherwise.
func (p *Pool) route(job *Job, idx int) chan poolTask {
	if len(job.Nonce) > 0 {
		h := fnv.New32a()
		h.Write(job.Nonce)
		return p.queues[h.Sum32()%uint32(p.workers)]
	}
	return p.queues[idx%p.workers]
}

// Submit enqueues a job and returns its submission index. It blocks only
// when the routed worker's queue is full (natural backpressure on the
// producer). Submit must not be called after Close.
func (p *Pool) Submit(job Job) int { return p.submit(job, nil, nil) }

// submit enqueues one task; AppraiseAll passes a result slot and its
// completion group.
func (p *Pool) submit(job Job, res *Result, done *sync.WaitGroup) int {
	idx := int(p.next.Add(1) - 1)
	p.route(&job, idx) <- poolTask{job: job, idx: idx, res: res, done: done}
	return idx
}

// AppraiseAll runs every job through the pool and returns results in
// submission order. It may be interleaved with concurrent Submit calls;
// only the jobs passed here are waited on.
//
// Identical nonce-less jobs — same subject, same evidence tree — are
// coalesced: one appraisal runs and every duplicate receives its
// certificate. High-inertia evidence re-presented across the packets of
// one call is pointer-identical (the switch caches the frame), so
// re-appraising it per packet proves nothing the first appraisal didn't.
// Jobs with a nonce are never coalesced: replay semantics require each
// submission to be appraised.
//
// Coalesced duplicates still count in Stats and still trigger OnResult
// (from this goroutine, not a worker); their Result.Index is the
// leader's.
func (p *Pool) AppraiseAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	var done sync.WaitGroup

	type dupKey struct {
		subject string
		ev      *evidence.Evidence
	}
	leader := make(map[dupKey]int, len(jobs))
	leaderOf := make([]int, len(jobs)) // -1 = this job runs; else index of its leader
	dups := 0
	for i := range jobs {
		leaderOf[i] = -1
		if len(jobs[i].Nonce) != 0 {
			continue
		}
		k := dupKey{jobs[i].Subject, jobs[i].Evidence}
		if l, ok := leader[k]; ok {
			leaderOf[i] = l
			dups++
		} else {
			leader[k] = i
		}
	}

	done.Add(len(jobs) - dups)
	for i := range jobs {
		if leaderOf[i] == -1 {
			p.submit(jobs[i], &results[i], &done)
		}
	}
	done.Wait()

	for i := range jobs {
		l := leaderOf[i]
		if l == -1 {
			continue
		}
		r := results[l]
		results[i] = r
		p.jobs.Add(1)
		switch {
		case r.Err != nil:
			p.errors.Add(1)
		case r.Certificate != nil && r.Certificate.Verdict:
			p.pass.Add(1)
		default:
			p.fail.Add(1)
		}
		if p.OnResult != nil {
			p.OnResult(r)
		}
	}
	return results
}

// Stats returns a snapshot of the aggregate verdict counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Jobs:   p.jobs.Load(),
		Pass:   p.pass.Load(),
		Fail:   p.fail.Load(),
		Errors: p.errors.Load(),
	}
}

// Close drains the queues, stops the workers and returns the final
// aggregate stats. The pool must not be used afterwards.
func (p *Pool) Close() PoolStats {
	if p.closed.CompareAndSwap(false, true) {
		for _, q := range p.queues {
			close(q)
		}
		p.wg.Wait()
		if p.aud != nil {
			st := p.Stats()
			p.aud.Emit(auditlog.Record{
				Event: auditlog.EventPoolDrained, Place: p.a.Name(),
				Note: fmt.Sprintf("workers=%d jobs=%d pass=%d fail=%d errors=%d",
					p.workers, st.Jobs, st.Pass, st.Fail, st.Errors),
			})
		}
	}
	return p.Stats()
}

// AppraiseParallel is the one-shot form: it appraises jobs on a temporary
// pool of the given width and returns results in submission order. The
// serial appraiser is the workers == 1 case, so differential tests can
// compare widths directly.
func AppraiseParallel(a *Appraiser, jobs []Job, workers int) []Result {
	p := NewPool(a, workers)
	defer p.Close()
	return p.AppraiseAll(jobs)
}
