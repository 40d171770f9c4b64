package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/evidence"
)

// clientsN is the number of closed-loop generator goroutines: the
// host's two cores.
const clientsN = 2

// client is one generator goroutine's state.
type client struct {
	id   int
	last replayable // the last honest request, for replay probes
}

// replayable is what a replay probe sends again.
type replayable struct {
	nonce []byte
	ev    *evidence.Evidence // in-process: the chain the client received
	body  []byte             // rats_tcp: the encoded evidence
}

// system is one workload's set-up: it runs requests and exposes the
// counters of the layers it drives.
type system interface {
	// do runs r on the calling goroutine. The verdict is reported through
	// r.ph.complete, possibly from another goroutine.
	do(c *client, r *request)
	// counters snapshots the layers' own counters.
	counters() layerCounters
	// setTracer starts the traced phase with tr, or ends it with nil:
	// server-side spans go to tr and the in-flight maximum restarts.
	setTracer(tr *tracer)
	// finish stops the system and checks its layers' counters against
	// the benchmark's own totals.
	finish(t totals) error
	// close stops the system without checking.
	close()
}

// layerCounters are counters the layers keep themselves.
type layerCounters struct {
	packets, signOps, inbandBytes uint64 // summed over sw1, sw2, sw3
	cacheHits, cacheMisses        uint64
	memoHits, memoMisses          uint64
	auditRecords, auditDropped    uint64
	spans                         uint64 // flow-tracer spans recorded
	certBytes                     uint64 // rats_tcp: certificate bytes received
	inflightMax                   int64  // most appraisals in flight at once
}

// totals are the benchmark's own counts over the whole run.
type totals struct {
	pass, fail, replayed int64
}

// phase accounts the requests issued in one phase of a run.
type phase struct {
	name string
	in   *inputs
	tr   *tracer   // nil unless this is the traced phase
	end  time.Time // closed loop: when issuing stopped

	issued, completed atomic.Int64
	evBytes, evCount  atomic.Int64 // evidence bytes delivered, and deliveries

	mu       sync.Mutex
	lat      []time.Duration // open loop: due time → verdict, by sequence number
	lag      []time.Duration // open loop: how late the pacer issued
	outcome  [4]int64        // indexed by outcome
	wrong    int64           // verdicts that differ from the expected one
	probes   int64           // probes that got a verdict
	caught   int64           // probes rejected as expected
	missing  int64           // requests still without a verdict after the drain
	firstErr error
	onTime   int64 // closed loop: verdicts that came back before end
}

func (p *phase) next() *request {
	p.issued.Add(1)
	return p.in.next(p)
}

// complete records r's verdict. err explains an outError outcome.
func (p *phase) complete(r *request, o outcome, at time.Time, err error) {
	p.mu.Lock()
	p.outcome[o]++
	if o != r.want {
		p.wrong++
		if p.firstErr == nil {
			if err == nil {
				err = fmt.Errorf("got %v, want %v", o, r.want)
			}
			p.firstErr = fmt.Errorf("%s request %#x (probe=%v): %w", p.name, r.id, r.probe, err)
		}
	}
	if r.probe {
		p.probes++
		if o == r.want {
			p.caught++
		}
	}
	if !r.due.IsZero() {
		p.lat[r.seq] = at.Sub(r.due)
	}
	if at.Before(p.end) {
		p.onTime++
	}
	p.mu.Unlock()
	p.tr.span(r.id, "request", "", r.due, at)
	p.completed.Add(1)
}

// fail reports a request that could not produce a verdict.
func (p *phase) fail(r *request, err error) {
	p.complete(r, outError, time.Now(), err)
}

// evidence records the evidence bytes one request delivered.
func (p *phase) evidence(n int) {
	p.evBytes.Add(int64(n))
	p.evCount.Add(1)
}

// drain waits until every issued request has its verdict, or the
// timeout passes; requests still open then count as missing.
func (p *phase) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for p.completed.Load() < p.issued.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.mu.Lock()
	p.missing = p.issued.Load() - p.completed.Load()
	if p.missing > 0 && p.firstErr == nil {
		p.firstErr = fmt.Errorf("%s: %d requests without a verdict", p.name, p.missing)
	}
	p.mu.Unlock()
}

// verdictsOnTime counts the closed-loop verdicts that came back before
// issuing stopped.
func (p *phase) verdictsOnTime() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onTime
}

// failed counts wrong and missing verdicts.
func (p *phase) failed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wrong + p.missing
}

const drainTimeout = 10 * time.Second

// closedLoop runs the clients back to back for d: each issues its next
// request as soon as the previous one returns, so pool backpressure is
// the only throttle.
func closedLoop(sys system, clients []*client, p *phase, d time.Duration) {
	p.end = time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(p.end) {
				sys.do(c, p.next())
			}
		}(c)
	}
	wg.Wait()
}

// openLoop issues rate requests per second for d from one pacing
// goroutine, whatever the system's speed, and times each from its due
// time. The pacer runs each request itself, so its core plays the
// dataplane while the appraisal pool works on the other. It sleeps until
// 1 ms before the due time and then busy-waits: a plain sleep wakes about
// a millisecond late, and a yielding wait (runtime.Gosched) left the
// pacer queued behind appraisals, issuing hundreds of microseconds late
// at p99. Either would hide the system's latency.
func openLoop(sys system, c *client, p *phase, rate float64, d time.Duration) {
	n := int(rate * d.Seconds())
	period := time.Duration(float64(time.Second) / rate)
	p.lat = make([]time.Duration, n)
	p.lag = make([]time.Duration, 0, n)
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		r := p.next()
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due) - time.Millisecond; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
		}
		r.due = due
		issued := time.Now()
		p.lag = append(p.lag, issued.Sub(due))
		p.tr.span(r.id, "loadgen.lag", "request", due, issued)
		sys.do(c, r)
	}
}

// gauge tracks work in flight and its maximum.
type gauge struct {
	cur, max atomic.Int64
}

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

// resetMax restarts the maximum from the current level.
func (g *gauge) resetMax() { g.max.Store(g.cur.Load()) }
