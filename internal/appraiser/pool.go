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
	"time"

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
	// tracer records the shared batch-flush spans.
	tracer *telemetry.FlowTracer
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
	// memo, when set, overrides the appraiser's memo for this appraisal —
	// the transport that hands a batch prewarm's pre-verified signature
	// verdicts to the worker without installing a persistent cache.
	memo *evidence.VerifyMemo
	// link, when set, names the shared batch-flush span whose batched
	// verification this job's signatures rode — recorded as a span link
	// (not a parent: the flush serves many jobs across many traces).
	link string
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
	p.tracer = tr
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
		cert, err := p.a.appraiseNoted(t.job.Trace, t.job.Subject, t.job.Evidence, t.job.Nonce, attr, t.memo, t.link)
		done := telemetry.StageEvent{Note: p.notes[id], Link: t.link}
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
func (p *Pool) Submit(job Job) int {
	idx := int(p.next.Add(1) - 1)
	p.route(&job, idx) <- poolTask{job: job, idx: idx}
	return idx
}

// submitTracked is Submit with a result slot, completion group, memo
// override and batch-flush span link, used by AppraiseAll.
func (p *Pool) submitTracked(job Job, res *Result, done *sync.WaitGroup, memo *evidence.VerifyMemo, link string) {
	idx := int(p.next.Add(1) - 1)
	p.route(&job, idx) <- poolTask{job: job, idx: idx, res: res, done: done, memo: memo, link: link}
}

// flushSpanStart mints the shared batch-flush span's context when the
// tracer would keep it: the span rides the trace of the first sampled
// job in the batch (one batch serves many traces; the others reach it
// through their appraise spans' links). A coalesced duplicate shares its
// earlier leader's flow, so scanning every job finds the same one.
// Returns a zero context when tracing is off or no flow is sampled.
func (p *Pool) flushSpanStart(jobs []Job) (telemetry.SpanContext, time.Time) {
	if tr := p.tracer; tr != nil {
		for i := range jobs {
			if flow := jobFlowID(&jobs[i]); tr.Sampled(flow) {
				ctx := telemetry.SpanContext{TraceID: telemetry.TraceIDFromFlow(flow), SpanID: telemetry.NewSpanID()}
				return ctx, time.Now()
			}
		}
	}
	return telemetry.SpanContext{}, time.Time{}
}

// flushSpanEnd records the batch-flush span and returns its span ID for
// the batched jobs to link to ("" when none was started).
func (p *Pool) flushSpanEnd(ctx telemetry.SpanContext, start time.Time, jobs int) string {
	if !ctx.Valid() {
		return ""
	}
	p.tracer.RecordSpan(ctx, telemetry.SpanContext{}, "batch", p.a.Name(),
		telemetry.StageBatchFlush, start, time.Since(start), strconv.Itoa(jobs)+" jobs")
	return ctx.SpanID
}

// prewarmMemo picks the memo a batch prewarm seeds: the appraiser's own
// persistent memo when enabled (override nil — workers already use it),
// else a fresh ephemeral memo that must be threaded through the tasks
// and dies with the call, so memo-off configurations batch within a
// call without gaining a cross-call cache.
func (p *Pool) prewarmMemo() (memo, override *evidence.VerifyMemo) {
	if m := p.a.memoSnapshot(); m != nil {
		return m, nil
	}
	m := evidence.NewVerifyMemo(1024)
	return m, m
}

// AppraiseAll runs every job through the pool and returns results in
// submission order. It may be interleaved with concurrent Submit calls;
// only the jobs passed here are waited on.
//
// Two batch optimizations apply to the whole call:
//
//   - identical nonce-less jobs — same subject, same evidence tree — are
//     coalesced: one appraisal runs and every duplicate receives its
//     certificate. High-inertia evidence re-presented across the packets
//     of one batch is pointer-identical (the switch caches the frame),
//     so re-appraising it per packet proves nothing the first appraisal
//     didn't. Jobs with a nonce are never coalesced: replay semantics
//     require each submission to be appraised.
//   - the unique chains' signatures are batch-verified up front, in
//     parallel sub-windows, seeding the verification memo the dispatched
//     appraisals then consume.
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

	memo, link := p.prewarm(jobs, leaderOf)

	done.Add(len(jobs) - dups)
	for i := range jobs {
		if leaderOf[i] == -1 {
			p.submitTracked(jobs[i], &results[i], &done, memo, link)
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

// prewarm batch-verifies the signatures of the call's unique chains,
// split across up to Workers parallel sub-windows, before any job is
// dispatched. It returns the memo override to stamp on the tasks (nil
// when the appraiser's own memo is the seed target) and the span ID of
// the whole-call batch-flush span for the jobs to link to.
func (p *Pool) prewarm(jobs []Job, leaderOf []int) (*evidence.VerifyMemo, string) {
	memo, override := p.prewarmMemo()
	keys := p.a.keysSnapshot()
	uniq := make([]int, 0, len(jobs))
	for i := range jobs {
		if leaderOf[i] == -1 {
			uniq = append(uniq, i)
		}
	}
	if len(uniq) == 0 {
		return override, ""
	}
	flushCtx, flushStart := p.flushSpanStart(jobs)
	parts := p.workers
	if parts > len(uniq) {
		parts = len(uniq)
	}
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Fresh goroutine: pprof labels are goroutine-scoped, so the
			// batch crypto must label itself here, not inherit the caller's.
			defer telemetry.ProfExit(p.a.planes.Region(telemetry.StageVerify).Enter())
			bv := batchVerifiers.Get().(*evidence.BatchVerifier)
			bv.Reset(memo)
			for j := w; j < len(uniq); j += parts {
				_ = bv.Gather(jobs[uniq[j]].Evidence, keys)
			}
			bv.Flush()
			batchVerifiers.Put(bv)
		}(w)
	}
	wg.Wait()
	return override, p.flushSpanEnd(flushCtx, flushStart, len(uniq))
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
