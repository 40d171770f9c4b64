package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// The stage seam. Every RATS stage at every place is reported once, as
// one StageEvent through a per-packet StageRecorder, and each
// observability plane attached to the component's Planes consumes that
// one event:
//
//   - registry histograms (SetHistogram): the stage latency, with the
//     trace ID as exemplar for traced flows;
//   - the flow tracer (SetTracer): one span per stage, parented under
//     the recorder's envelope span (hop, attest or appraise), for
//     sampled flows;
//   - the durable ledger (SetLedger): one record per subscribed stage;
//   - profiler labels: Begin stamps the stage's pprof labels and End
//     restores the enclosing region's;
//   - the recorder's own tally (Tally): per-stage counts and durations,
//     which the in-band hop span carries.
//
// A stage is timed whenever an attached plane records durations: a
// histogram, the ledger, a tally, or the tracer for a sampled flow.
// With no plane attached and the profiler disarmed, Open, Begin, End
// and Close are each one inlined bool test.

// StageEvent is one stage occurrence at a place. The recorder stamps
// Place, Flow, Start and Dur; the stage site supplies the rest.
type StageEvent struct {
	Stage  Stage
	Place  string
	Flow   string      // nonce hex or flow hash: the correlation ID
	Parent SpanContext // Open only: the span the envelope parents under
	Start  time.Time   // zero when the stage was not timed
	Dur    time.Duration

	Target  string // claim target, or the appraisal subject
	Detail  string // Fig. 4 detail level
	Nonce   string // session nonce (hex)
	Policy  string // policy term in force
	Verdict string // PASS or FAIL: the envelope rendered a verdict
	Err     string // the envelope failed operationally (e.g. nonce replay)
	Note    string
	Link    string     // span ID of a shared batch-flush span the stage rode
	Prov    Provenance // the clause that decided; Clause == "" means none
}

// Provenance names the exact Copland/NetKAT clause that accepted or
// rejected at a stage — the machine-checkable "why" behind a verdict.
// Stage identifies which step of the appraisal pipeline decided; Clause
// is the policy-language fragment that step enforces.
type Provenance struct {
	Policy string `json:"policy,omitempty"` // policy term name, e.g. "AP1"
	Clause string `json:"clause"`           // Copland/NetKAT clause that decided
	Stage  string `json:"stage"`            // structure|signature|nonce|hash|quote|golden|guard|accept
	Place  string `json:"place,omitempty"`  // the place whose claim decided (golden/quote rejections)
	Accept bool   `json:"accept"`
	Reason string `json:"reason,omitempty"`
}

// StageSink is a plane outside this package that the seam feeds: the
// audit ledger. StageOpened sees a subscribed envelope begin, StageEnded
// every subscribed stage end.
type StageSink interface {
	StageOpened(ev StageEvent)
	StageEnded(ev StageEvent)
}

// stageOrder assigns each stage its slot in the per-stage tables, the
// hot stages first; unlisted stages share the last slot.
var stageOrder = [...]Stage{
	StageSign, StageEvidence, StageCompose, StageCacheHit, StageCacheMiss,
	StageVerify, StageVerifyFail, StageAppraise, StageHop, StageAttest,
	StageGuardReject, StageVerdict, StageChallenge, StageAppraisal, StageProbe, StageBatchFlush,
}

const numStages = len(stageOrder) + 1

func stageIndex(s Stage) int {
	for i, st := range stageOrder {
		if st == s {
			return i
		}
	}
	return len(stageOrder)
}

// Planes is one component's attachment point on the stage seam; each
// switch, appraiser and pool worker embeds one. Attaching may race with
// recorders: each recorder sees one consistent set of planes.
type Planes struct {
	place string
	prof  [numStages]*ProfRegion

	mu  sync.Mutex
	cur atomic.Pointer[planeSet] // nil when no plane is attached
}

type planeSet struct {
	tracer   *FlowTracer
	ledger   StageSink
	ledgered [numStages]bool
	hist     [numStages]*Histogram
	timed    bool // a histogram or the ledger records every stage's duration
}

// Init names the place and precomputes the pprof labels for the stages
// it runs.
func (p *Planes) Init(place string, labeled ...Stage) {
	p.place = place
	for _, s := range labeled {
		p.prof[stageIndex(s)] = NewProfRegion(s, place)
	}
}

// Region returns the place's pprof region for a stage (nil when the
// stage is not labeled here), for batch work that runs outside any
// recorder.
func (p *Planes) Region(s Stage) *ProfRegion { return p.prof[stageIndex(s)] }

// SetTracer attaches the flow tracer; nil detaches.
func (p *Planes) SetTracer(tr *FlowTracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := p.snapshot()
	next.tracer = tr
	p.swap(next)
}

// SetLedger attaches the ledger for the given stages; nil detaches.
func (p *Planes) SetLedger(l StageSink, stages ...Stage) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := p.snapshot()
	next.ledger, next.ledgered = l, [numStages]bool{}
	for _, s := range stages {
		next.ledgered[stageIndex(s)] = l != nil
	}
	p.swap(next)
}

// SetHistogram makes h the latency histogram of the given stages.
func (p *Planes) SetHistogram(h *Histogram, stages ...Stage) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := p.snapshot()
	for _, s := range stages {
		next.hist[stageIndex(s)] = h
	}
	p.swap(next)
}

// snapshot copies the attached planes; the caller holds p.mu.
func (p *Planes) snapshot() planeSet {
	if cur := p.cur.Load(); cur != nil {
		return *cur
	}
	return planeSet{}
}

// swap publishes next, or nil when it attaches nothing — detaching from
// a bare component allocates nothing.
func (p *Planes) swap(next planeSet) {
	next.timed = next.ledger != nil
	for _, h := range next.hist {
		next.timed = next.timed || h != nil
	}
	if !next.timed && next.tracer == nil {
		p.cur.Store(nil)
		return
	}
	ps := new(planeSet)
	*ps = next
	p.cur.Store(ps)
}

// StageRecorder reports one packet's (or one appraisal's) stages at a
// place. It is a value meant to live on the caller's stack: Recorder
// snapshots the attached planes, Open starts the envelope stage,
// Begin/End bracket each stage inside it, and Close ends the envelope.
type StageRecorder struct {
	planes *Planes
	set    *planeSet
	on     bool // a plane, a tally or the profiler consumes stages
	timed  bool

	stage  Stage // the envelope, once opened
	flow   string
	parent SpanContext
	ctx    SpanContext // the envelope span; stage spans parent under it
	start  time.Time
	region *ProfRegion // labels this recorder has stamped, if any

	// The tally lives in the recorder, not behind a pointer, so that a
	// recorder on the stack keeps it there too.
	tallying bool
	tally    [numStages]struct {
		n   int
		dur time.Duration
	}
}

// StageMark is an open stage, returned by Begin and consumed by End.
type StageMark struct {
	stage   Stage
	start   time.Time
	prev    *ProfRegion
	entered bool
	on      bool
}

// Recorder snapshots the attached planes for one packet or appraisal.
func (p *Planes) Recorder() StageRecorder {
	set := p.cur.Load()
	return StageRecorder{
		planes: p, set: set,
		on:    set != nil || profArmed.Load(),
		timed: set != nil && set.timed,
	}
}

// Detailed reports whether a plane that reads more than stage and timing
// — the tracer or the ledger — is attached. Sites use it to skip
// building flow IDs and other text nobody would read.
func (r *StageRecorder) Detailed() bool {
	return r.set != nil && (r.set.tracer != nil || r.set.ledger != nil)
}

// Tally counts the stages that end after this call and sums their
// durations (Count, Total); it turns timing on.
func (r *StageRecorder) Tally() {
	r.tallying, r.on, r.timed = true, true, true
}

// Count returns how many s stages ended since Tally.
func (r *StageRecorder) Count(s Stage) int { return r.tally[stageIndex(s)].n }

// Total returns the summed duration of the s stages ended since Tally.
func (r *StageRecorder) Total(s Stage) time.Duration { return r.tally[stageIndex(s)].dur }

// Open starts the envelope stage: ev names the stage, the flow and the
// parent span, plus any fields the ledger records when it begins.
func (r *StageRecorder) Open(ev StageEvent) {
	if r.on {
		r.open(&ev)
	}
}

func (r *StageRecorder) open(ev *StageEvent) {
	r.stage, r.flow, r.parent = ev.Stage, ev.Flow, ev.Parent
	set := r.set
	if set != nil && set.tracer != nil {
		r.ctx = set.tracer.ChildContext(ev.Parent, ev.Flow)
		r.timed = r.timed || r.ctx.Valid()
	}
	if r.timed {
		r.start = time.Now()
	}
	r.region = r.planes.enter(ev.Stage)
	if set != nil && set.ledgered[stageIndex(ev.Stage)] {
		ev.Place, ev.Start = r.planes.place, r.start
		set.ledger.StageOpened(*ev)
	}
}

// Begin starts a stage inside the envelope.
func (r *StageRecorder) Begin(s Stage) StageMark {
	if !r.on {
		return StageMark{}
	}
	return r.begin(s)
}

func (r *StageRecorder) begin(s Stage) StageMark {
	m := StageMark{stage: s, prev: r.region, on: true}
	if rg := r.planes.enter(s); rg != nil {
		m.entered, r.region = true, rg
	}
	// Compose only links two nodes; its span and record are instants.
	if r.timed && s != StageCompose {
		m.start = time.Now()
	}
	return m
}

// End finishes the stage m began. ev.Stage, when set, overrides the
// stage Begin named — a verify that failed ends as verify_fail.
func (r *StageRecorder) End(m StageMark, ev StageEvent) {
	if m.on {
		r.end(m, &ev)
	}
}

func (r *StageRecorder) end(m StageMark, ev *StageEvent) {
	if ev.Stage == "" {
		ev.Stage = m.stage
	}
	if !m.start.IsZero() {
		ev.Start, ev.Dur = m.start, time.Since(m.start)
	}
	if m.entered {
		r.region = m.prev
		if m.prev == nil || !m.prev.Enter() {
			ProfExit(true)
		}
	}
	r.publish(ev, childSpan)
}

// Mark reports a point stage: counted and recorded, but never timed,
// labeled or spanned.
func (r *StageRecorder) Mark(ev StageEvent) {
	if r.on {
		r.publish(&ev, noSpan)
	}
}

// Close ends the envelope stage. An envelope that rendered a verdict (or
// failed with Err) also gets a verdict span.
func (r *StageRecorder) Close(ev StageEvent) {
	if r.on {
		r.close(&ev)
	}
}

func (r *StageRecorder) close(ev *StageEvent) {
	if r.region != nil {
		ProfExit(true)
		r.region = nil
	}
	if r.stage == "" {
		return
	}
	ev.Stage = r.stage
	if !r.start.IsZero() {
		ev.Start, ev.Dur = r.start, time.Since(r.start)
	}
	r.publish(ev, envelopeSpan)
}

// spanKind is how the tracer records a stage.
type spanKind uint8

const (
	noSpan       spanKind = iota // a point stage
	childSpan                    // a stage under the envelope span
	envelopeSpan                 // the envelope itself
)

// publish hands one ended stage to every subscriber.
func (r *StageRecorder) publish(ev *StageEvent, kind spanKind) {
	i := stageIndex(ev.Stage)
	if r.tallying {
		r.tally[i].n++
		r.tally[i].dur += ev.Dur
	}
	set := r.set
	if set == nil {
		return
	}
	ev.Place, ev.Flow = r.planes.place, r.flow
	if h := set.hist[i]; h != nil && !ev.Start.IsZero() {
		h.ObserveExemplar(ev.Dur.Seconds(), r.ctx.TraceID)
	}
	if tr := set.tracer; r.ctx.Valid() {
		switch kind {
		case childSpan:
			note := ev.Note
			if note == "" {
				note = ev.Target
			}
			tr.RecordChild(r.ctx, r.flow, ev.Place, ev.Stage, ev.Start, ev.Dur, note)
		case envelopeSpan:
			if ev.Link != "" {
				tr.RecordSpan(r.ctx, r.parent, r.flow, ev.Place, ev.Stage, ev.Start, ev.Dur, ev.Note, ev.Link)
			} else {
				tr.RecordSpan(r.ctx, r.parent, r.flow, ev.Place, ev.Stage, ev.Start, ev.Dur, ev.Note)
			}
			if ev.Verdict != "" || ev.Err != "" {
				note := ev.Verdict
				if ev.Err != "" {
					note = "error: " + ev.Err
				}
				// An instant at the envelope's end, inside its interval.
				tr.RecordChild(r.ctx, r.flow, ev.Place, StageVerdict, ev.Start.Add(ev.Dur), 0, note)
			}
		}
	}
	if set.ledgered[i] {
		set.ledger.StageEnded(*ev)
	}
}

// enter stamps the stage's labels when it has a region here and the
// profiler is armed, returning the region it entered.
func (p *Planes) enter(s Stage) *ProfRegion {
	if rg := p.prof[stageIndex(s)]; rg != nil && rg.Enter() {
		return rg
	}
	return nil
}
