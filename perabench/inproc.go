package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/appraiser"
	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/pisa"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

const subject = "bank→client path"

// inproc drives the UC1 testbed in process. The benchmark plays the bank
// and the client stack: it wraps each frame, walks it hop by hop through
// the testbed's nodes and opens it at the egress toward the client, then
// submits the chain to the appraisal pool. Frames are never delivered to
// the client Host, which keeps a copy of every frame it receives.
type inproc struct {
	spec  *workloadSpec
	tb    *usecases.Testbed
	cache *evidence.Cache
	pool  *appraiser.Pool
	prog  *p4ir.Program // header layouts of the bank's frames
	// spanNames maps a node to its hop span name, e.g. sw1 → pera.hop.sw1.
	spanNames map[string]string

	// Observability planes (uc1_observed only).
	flowTracer *telemetry.FlowTracer
	audit      *auditlog.Writer
	auditPath  string

	mu      sync.Mutex
	pending map[int]pendingJob // pool index → whichever half arrived first

	traversed atomic.Int64 // packets walked from sw1 to the client egress
	submitted atomic.Int64 // jobs handed to the pool
	inflight  gauge
	closeOnce sync.Once
}

type pendingJob struct {
	r   *request
	res appraiser.Result
	at  time.Time
}

func newTestbed() (*usecases.Testbed, *evidence.Cache, error) {
	cache := evidence.NewCache()
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained, Cache: cache})
	return tb, cache, err
}

func newInproc(spec *workloadSpec, workdir string) (*inproc, error) {
	tb, cache, err := newTestbed()
	if err != nil {
		return nil, err
	}
	s := &inproc{
		spec: spec, tb: tb, cache: cache,
		prog:      usecases.SwitchProgram(usecases.SwEdge),
		spanNames: map[string]string{},
		pending:   map[int]pendingJob{},
	}
	for _, name := range tb.Net.Nodes() {
		if _, ok := tb.Switches[name]; ok {
			s.spanNames[name] = "pera.hop." + name
		} else {
			s.spanNames[name] = "netsim." + name
		}
	}
	a := tb.Appraiser
	a.EnableMemo(0)
	s.pool = appraiser.NewPool(a, 0)
	s.pool.OnResult = s.onResult
	if spec.observed {
		if err := s.attachPlanes(workdir); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// attachPlanes wires a telemetry registry, a 1-in-8 flow tracer and an
// audit ledger on a temp file to every switch, the cache, the appraiser
// and the pool — before the first Submit, as the pool requires.
func (s *inproc) attachPlanes(workdir string) error {
	f, err := os.CreateTemp(workdir, "perabench-audit-*.jsonl")
	if err != nil {
		return err
	}
	s.auditPath = f.Name()
	f.Close()
	s.audit, err = auditlog.Create(s.auditPath, auditlog.Options{})
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	s.flowTracer = telemetry.NewFlowTracer(0)
	s.flowTracer.SetSampleEvery(8)
	s.flowTracer.Instrument(reg)
	s.audit.Instrument(reg)
	for _, sw := range s.tb.Switches {
		sw.Instrument(reg)
		sw.SetTracer(s.flowTracer)
		sw.SetAudit(s.audit)
	}
	s.cache.Instrument(reg)
	s.cache.SetAudit(s.audit)
	a := s.tb.Appraiser
	a.Instrument(reg) // after EnableMemo, so the memo is exported too
	a.SetAudit(s.audit)
	s.pool.Instrument(reg)
	s.pool.SetTracer(s.flowTracer)
	s.pool.SetAudit(s.audit)
	return nil
}

func (s *inproc) do(c *client, r *request) {
	tr := r.ph.tr
	if r.probe && s.spec.kind == kindFresh {
		if c.last.nonce != nil {
			r.want = outReplayed
			s.submit(r, appraiser.Job{Subject: subject, Evidence: c.last.ev, Nonce: c.last.nonce})
			return
		}
		r.probe = false // nothing to replay yet on this client
	}
	t0 := tr.now()
	compiled, err := usecases.CompileUC1Policy(s.tb, r.nonce)
	if err != nil {
		r.ph.fail(r, err)
		return
	}
	t1 := tr.now()
	tr.span(r.id, "usecases.compile", "request", t0, t1)
	inner, err := pisa.IPFrame(s.prog, usecases.AddrBank, usecases.AddrClient, r.sport, 443, r.payload)
	if err != nil {
		r.ph.fail(r, err)
		return
	}
	t2 := tr.now()
	tr.span(r.id, "pisa.frame", "request", t1, t2)
	frame := pera.WrapFrame(compiled.Policy, inner)
	tr.span(r.id, "pera.wrap", "request", t2, tr.now())
	frame, err = s.traverse(frame, r)
	if err != nil {
		r.ph.fail(r, err)
		return
	}
	t3 := tr.now()
	hdr, rest, err := pera.UnwrapFrame(frame)
	tr.span(r.id, "pera.unwrap", "request", t3, tr.now())
	if err != nil {
		r.ph.fail(r, err)
		return
	}
	if hdr == nil || hdr.Evidence == nil {
		r.ph.fail(r, errors.New("frame reached the client without evidence"))
		return
	}
	r.ph.evidence(len(frame) - len(rest))
	job := appraiser.Job{Subject: subject, Evidence: hdr.Evidence}
	switch {
	case s.spec.kind == kindFresh:
		job.Nonce = r.nonce
		c.last = replayable{nonce: r.nonce, ev: hdr.Evidence}
	case r.probe:
		// Tamper with a shallow copy of the root signature node: the chain
		// below it stays shared and intact.
		root := *hdr.Evidence
		root.Signature = append([]byte(nil), root.Signature...)
		root.Signature[r.flip%len(root.Signature)] ^= 0x01
		job.Evidence = &root
		r.want = outFail
	}
	s.submit(r, job)
}

// traverse walks frame from the bank's link to the egress toward the
// client, calling each node's full pipeline in turn.
func (s *inproc) traverse(frame []byte, r *request) ([]byte, error) {
	tr := r.ph.tr
	node, port, ok := s.tb.Net.Peer(usecases.HostBank, netsim.HostPort)
	for ok && node != usecases.HostClient {
		n, found := s.tb.Net.Node(node)
		if !found {
			return nil, fmt.Errorf("unknown node %q", node)
		}
		t0 := tr.now()
		emits, err := n.Receive(port, frame)
		tr.span(r.id, s.spanNames[node], "request", t0, tr.now())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", node, err)
		}
		if len(emits) != 1 {
			return nil, fmt.Errorf("%s emitted %d frames, want 1", node, len(emits))
		}
		frame = emits[0].Frame
		node, port, ok = s.tb.Net.Peer(node, emits[0].Port)
	}
	if !ok {
		return nil, errors.New("frame left the path before the client")
	}
	s.traversed.Add(1)
	return frame, nil
}

func (s *inproc) submit(r *request, job appraiser.Job) {
	s.inflight.enter()
	s.submitted.Add(1)
	tr := r.ph.tr
	r.submitAt = tr.now()
	idx := s.pool.Submit(job)
	tr.span(r.id, "appraiser.submit", "appraiser.verdict", r.submitAt, tr.now())
	s.match(idx, pendingJob{r: r})
}

func (s *inproc) onResult(res appraiser.Result) {
	s.match(res.Index, pendingJob{res: res, at: time.Now()})
}

// match pairs a submitted request with its pool result, whichever half
// arrives first: a worker may deliver the result before Submit returns
// the job's index.
func (s *inproc) match(idx int, half pendingJob) {
	s.mu.Lock()
	other, ok := s.pending[idx]
	if !ok {
		s.pending[idx] = half
		s.mu.Unlock()
		return
	}
	delete(s.pending, idx)
	s.mu.Unlock()
	if half.r == nil {
		half.r = other.r
	} else {
		half.res, half.at = other.res, other.at
	}
	s.inflight.exit()
	r := half.r
	r.ph.tr.span(r.id, "appraiser.verdict", "request", r.submitAt, half.at)
	o, err := outcomeOf(half.res.Certificate, half.res.Err)
	r.ph.complete(r, o, half.at, err)
}

func outcomeOf(cert *appraiser.Certificate, err error) (outcome, error) {
	switch {
	case errors.Is(err, appraiser.ErrNonceReplayed):
		return outReplayed, err
	case err != nil:
		return outError, err
	case cert == nil:
		return outError, errors.New("no certificate")
	case cert.Verdict:
		return outPass, nil
	default:
		return outFail, errors.New(cert.Reason)
	}
}

// testbedCounters sums the switches' counters and reads the evidence
// cache's and the verification memo's.
func testbedCounters(tb *usecases.Testbed, cache *evidence.Cache) layerCounters {
	var c layerCounters
	for _, sw := range tb.Switches {
		st := sw.Stats()
		c.packets += st.Packets
		c.signOps += st.SignOps
		c.inbandBytes += st.InBandBytes
	}
	cs := cache.Stats()
	c.cacheHits, c.cacheMisses = cs.Hits, cs.Misses
	ms := tb.Appraiser.MemoStats()
	c.memoHits, c.memoMisses = ms.Hits, ms.Misses
	return c
}

func (s *inproc) counters() layerCounters {
	c := testbedCounters(s.tb, s.cache)
	s.audit.Flush() // the ledger writes asynchronously
	c.auditRecords, c.auditDropped = s.audit.Records(), s.audit.Dropped()
	c.spans = s.flowTracer.Recorded()
	c.inflightMax = s.inflight.max.Load()
	return c
}

func (s *inproc) setTracer(tr *tracer) {
	if tr != nil {
		s.inflight.resetMax()
	}
}

// finish drains the pool and checks that the layers counted what the
// benchmark sent: every switch saw and signed each walked packet once,
// the pool's verdicts match the benchmark's, the memo was consulted once
// per signature, and the ledger holds every record the run emitted.
func (s *inproc) finish(t totals) error {
	defer s.close()
	ps := s.pool.Close()
	s.audit.Flush()
	var cc countCheck
	check := cc.eq
	walked := uint64(s.traversed.Load())
	for _, name := range []string{usecases.SwFirewall, usecases.SwACL, usecases.SwEdge} {
		st := s.tb.Switches[name].Stats()
		check(name+" packets", st.Packets, walked)
		check(name+" sign ops", st.SignOps, walked)
	}
	check("pool jobs", ps.Jobs, uint64(s.submitted.Load()))
	check("pool pass", ps.Pass, uint64(t.pass))
	check("pool fail", ps.Fail, uint64(t.fail))
	check("pool errors", ps.Errors, uint64(t.replayed))
	ms := s.tb.Appraiser.MemoStats()
	// Each appraised chain's three signatures are looked up once in the
	// verification walk; a tampered root fails at the first lookup.
	check("memo hits", ms.Hits, 3*uint64(t.pass)+uint64(t.fail))
	if s.spec.kind == kindFresh {
		// Fresh chains never repeat: every signature is new to the memo.
		check("memo misses", ms.Misses, 3*uint64(t.pass))
	}
	if s.audit != nil {
		// ledger_open + pool_drained, 4 per switch per walked packet (two
		// claims, compose, sign), appraise + verdict per job, one record
		// per memo insert and per cache expiry.
		want := 2 + 12*walked + 2*ps.Jobs + ms.Misses + s.cache.Stats().Evictions
		check("audit records+dropped", s.audit.Records()+s.audit.Dropped(), want)
	}
	return cc.err()
}

// countCheck collects the mismatches of a count cross-check.
type countCheck []error

func (c *countCheck) eq(what string, got, want uint64) {
	if got != want {
		*c = append(*c, fmt.Errorf("%s = %d, benchmark counted %d", what, got, want))
	}
}

func (c countCheck) err() error { return errors.Join(c...) }

func (s *inproc) close() {
	s.closeOnce.Do(func() {
		s.pool.Close()
		s.audit.Close()
		if s.auditPath != "" {
			os.Remove(s.auditPath)
		}
	})
}
