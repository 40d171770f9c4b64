// Package observatory is the network-wide observability plane for PERA
// paths. The paper's Fig. 1 appraiser sees only end-of-path evidence;
// the observatory answers the question that view cannot: *which hop* is
// slow, failing, or compromised.
//
// One Collector reads three feeds:
//
//   - Hops: the Collector is a telemetry.StageSink subscribed to every
//     switch (Switch.Subscribe). From the stage events of each hop over
//     a frame carrying a PERA header it builds that hop's row — timing,
//     evidence growth, cache, guard and sampler outcomes — stamped with
//     the place of the switch that ran it, and reassembles each frame's
//     rows into an end-to-end path trace keyed by flow. The rows come
//     from the same events the tracer and the ledger read, so the
//     planes cannot disagree on a hop.
//   - Verdicts: subscribed to the appraiser's appraise envelope
//     (Appraiser.Subscribe), every verdict joins its flow's trace and
//     trains a rolling window at each place whose signature the
//     appraiser verified, failing only the place its provenance names
//     (which switch's claim failed the golden comparison); the first
//     place whose failure rate departs its baseline is flagged — a UC1
//     program swap is attributed to the specific switch, not just "path
//     failed".
//   - Pushes: periodic switch counters, ledger and memo health.
package observatory

import (
	"fmt"
	"slices"
	"sync"

	"pera/internal/pera"
	"pera/internal/telemetry"
)

// The collector's retention and anomaly model.
const (
	// pathCapacity bounds retained end-to-end traces (ring).
	pathCapacity = 256
	// window is the rolling appraisal-outcome window per place.
	window = 64
	// baseline is how many initial observations per place form its
	// baseline failure rate.
	baseline = 16
	// threshold is the window-vs-baseline failure-rate departure that
	// flags a place.
	threshold = 0.25
	// latencyRing bounds retained per-place hop latencies.
	latencyRing = 256
)

// Hop flag bits.
const (
	// HopVerified: the Verify stage ran on the incoming chain and passed.
	HopVerified uint8 = 1 << 0
	// HopAttested: the hop produced evidence for at least one obligation.
	HopAttested uint8 = 1 << 1
)

// Hop is one switch's row in a path trace, read off the stage events of
// one hop envelope. All counters are per frame (not cumulative).
type Hop struct {
	Place        string `json:"place"`
	Flags        uint8  `json:"flags"`
	VerifyNS     uint64 `json:"verify_ns"`     // Verify stage duration, passed or failed
	SignNS       uint64 `json:"sign_ns"`       // total Sign stage duration
	TotalNS      uint64 `json:"total_ns"`      // the hop envelope's duration
	EvBytes      uint32 `json:"ev_bytes"`      // evidence bytes this hop added
	CacheHits    uint16 `json:"cache_hits"`    // evidence-cache hits
	CacheMisses  uint16 `json:"cache_misses"`  // evidence-cache misses
	GuardRejects uint16 `json:"guard_rejects"` // obligations skipped by ▶ tests
	SampleSkips  uint16 `json:"sample_skips"`  // obligations skipped by the sampler
}

// Verified reports whether the Verify stage passed at this hop.
func (h *Hop) Verified() bool { return h.Flags&HopVerified != 0 }

// Attested reports whether this hop produced evidence.
func (h *Hop) Attested() bool { return h.Flags&HopAttested != 0 }

// PathTrace is one reassembled end-to-end trace: the ordered hops a
// frame crossed, joined with the appraisal verdict for its flow.
// Truncated is always false: every hop the collector saw is on it.
type PathTrace struct {
	Seq       uint64 `json:"seq"`
	Flow      string `json:"flow"`
	Hops      []Hop  `json:"hops"`
	Truncated bool   `json:"truncated"`
	Verdict   string `json:"verdict,omitempty"` // PASS / FAIL, "" until appraised
	FailPlace string `json:"fail_place,omitempty"`
	FailStage string `json:"fail_stage,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// Localization names the place a rolling-window anomaly attributed a
// compromise to, with the rates that decided.
type Localization struct {
	Place        string  `json:"place"`
	AtVerdict    uint64  `json:"at_verdict"`  // verdict count when flagged
	AtPathSeq    uint64  `json:"at_path_seq"` // trace count when flagged
	WindowRate   float64 `json:"window_fail_rate"`
	BaselineRate float64 `json:"baseline_fail_rate"`
	Reason       string  `json:"reason"`
}

type linkKey struct{ from, to string }

// hopKey names a hop in flight: the switch running it and the flow.
type hopKey struct{ place, flow string }

// Collector is the out-of-band observatory node. It is safe for
// concurrent use (switches, appraisal workers and stats pushers may all
// feed it at once) and implements telemetry.StageSink.
type Collector struct {
	name string

	mu       sync.Mutex
	places   map[string]*place
	placeSeq []string // first-seen order ≈ path order
	links    map[linkKey]*link
	linkSeq  []linkKey
	pending  map[hopKey]*Hop // hops opened and not yet closed
	paths    []*PathTrace    // ring, capacity pathCapacity
	pathHead int
	byFlow   map[string]*PathTrace // each flow's open trace, awaiting a verdict
	seq      uint64                // traces started (monotonic), one per frame
	verdicts uint64
	pushes   uint64 // stats/audit/memo pushes
	loc      *Localization
}

// New creates a collector; the name labels its snapshot.
func New(name string) *Collector {
	return &Collector{
		name:    name,
		places:  make(map[string]*place),
		links:   make(map[linkKey]*link),
		pending: make(map[hopKey]*Hop),
		byFlow:  make(map[string]*PathTrace),
	}
}

// StageOpened implements telemetry.StageSink: a hop over a frame that
// carries a PERA header opens its row. Other hops, and every other
// envelope, open nothing, so the stages inside them are ignored.
func (c *Collector) StageOpened(ev telemetry.StageEvent) {
	if ev.Stage != telemetry.StageHop || ev.Note != pera.NoteInBand {
		return
	}
	c.mu.Lock()
	c.pending[hopKey{ev.Place, ev.Flow}] = &Hop{Place: ev.Place}
	c.mu.Unlock()
}

// StageEnded implements telemetry.StageSink. An appraise envelope is a
// verdict (see verdict). A stage inside an open hop folds into its row,
// and the hop's own end files the row into its flow's trace.
func (c *Collector) StageEnded(ev telemetry.StageEvent) {
	if ev.Stage == telemetry.StageAppraise {
		c.verdict(ev)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := hopKey{ev.Place, ev.Flow}
	h := c.pending[k]
	if h == nil {
		return
	}
	switch ev.Stage {
	case telemetry.StageHop:
		delete(c.pending, k)
		h.TotalNS = uint64(ev.Dur)
		h.EvBytes = uint32(ev.EvBytes)
		c.file(ev.Flow, h)
	case telemetry.StageVerify:
		h.Flags |= HopVerified
		h.VerifyNS += uint64(ev.Dur)
	case telemetry.StageVerifyFail:
		h.VerifyNS += uint64(ev.Dur)
	case telemetry.StageGuardReject:
		h.GuardRejects++
	case telemetry.StageSampleSkip:
		h.SampleSkips++
	case telemetry.StageEvidence, telemetry.StageCompose:
		h.Flags |= HopAttested
	case telemetry.StageCacheHit:
		h.Flags |= HopAttested
		h.CacheHits++
	case telemetry.StageCacheMiss:
		h.Flags |= HopAttested
		h.CacheMisses++
	case telemetry.StageSign:
		h.Flags |= HopAttested
		h.SignNS += uint64(ev.Dur)
	}
}

// file appends a closed hop to its flow's open trace — or to a new one
// when the flow has none, or when its trace already holds the hop's
// place: paths are loop-free, so that hop belongs to the flow's next
// frame — and folds the hop into its place's and its link's health.
// Caller holds mu.
func (c *Collector) file(flow string, h *Hop) {
	pt := c.byFlow[flow]
	if pt == nil || slices.ContainsFunc(pt.Hops, func(x Hop) bool { return x.Place == h.Place }) {
		pt = c.newTrace(flow)
	}
	p := c.place(h.Place)
	p.spans++
	p.evBytes += uint64(h.EvBytes)
	p.cacheHits += uint64(h.CacheHits)
	p.cacheMisses += uint64(h.CacheMisses)
	p.guardRejects += uint64(h.GuardRejects)
	p.sampleSkips += uint64(h.SampleSkips)
	p.lat.push(float64(h.TotalNS))
	if n := len(pt.Hops); n > 0 {
		l := c.link(pt.Hops[n-1].Place, h.Place)
		l.frames++
		l.evBytes += uint64(h.EvBytes)
	}
	pt.Hops = append(pt.Hops, *h)
}

// newTrace starts a flow's next path trace in the ring, evicting the
// oldest trace's pending-verdict entry with it. Caller holds mu.
func (c *Collector) newTrace(flow string) *PathTrace {
	c.seq++
	pt := &PathTrace{Seq: c.seq, Flow: flow}
	if len(c.paths) < pathCapacity {
		c.paths = append(c.paths, pt)
	} else {
		old := c.paths[c.pathHead]
		if c.byFlow[old.Flow] == old {
			delete(c.byFlow, old.Flow)
		}
		c.paths[c.pathHead] = pt
		c.pathHead = (c.pathHead + 1) % pathCapacity
	}
	c.byFlow[flow] = pt
	return pt
}

// verdict reads the end of the appraiser's appraise envelope: the
// verdict joins the open path trace for its flow, and every place whose
// signature the appraiser verified (ev.Signers) receives an appraisal
// outcome — a failure is attributed only to the place the verdict's
// provenance names, which is what trains the per-place anomaly windows
// to localize rather than blame the whole path. The named place learns
// of its failure even when its signature is not among them. An
// appraisal that failed operationally (Err, e.g. a nonce replay)
// rendered no verdict and is skipped.
func (c *Collector) verdict(ev telemetry.StageEvent) {
	if ev.Err != "" || ev.Verdict == "" {
		return
	}
	verdict := ev.Verdict == "PASS"
	failPlace, stage, reason := ev.Prov.Place, ev.Prov.Stage, ev.Prov.Reason
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verdicts++
	if pt := c.byFlow[ev.Flow]; pt != nil {
		delete(c.byFlow, ev.Flow)
		pt.Verdict = ev.Verdict
		if !verdict {
			pt.FailPlace = failPlace
			pt.FailStage = stage
			pt.Reason = reason
		}
	}
	observe := func(name string, fail bool) {
		p := c.place(name)
		p.observe(fail)
		if p.flagged && p.flaggedAt == 0 {
			p.flaggedAt = c.verdicts
			if c.loc == nil {
				c.loc = &Localization{
					Place:        name,
					AtVerdict:    c.verdicts,
					AtPathSeq:    c.seq,
					WindowRate:   p.windowRate(),
					BaselineRate: p.baselineRate(),
					Reason: fmt.Sprintf("window fail rate %.2f departed baseline %.2f by more than %.2f (stage %s: %s)",
						p.windowRate(), p.baselineRate(), threshold, stage, reason),
				}
			}
		}
	}
	for _, name := range ev.Signers {
		observe(name, !verdict && name == failPlace)
	}
	if !verdict && failPlace != "" && !slices.Contains(ev.Signers, failPlace) {
		observe(failPlace, true)
	}
}

// IngestStats folds one place's periodic telemetry push (cumulative
// switch counters) into its health row.
func (c *Collector) IngestStats(placeName string, st pera.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes++
	p := c.place(placeName)
	p.stats = st
	p.statsSet = true
}

// IngestAudit folds one place's audit-writer health push.
func (c *Collector) IngestAudit(placeName string, records, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes++
	p := c.place(placeName)
	p.auditRecords, p.auditDropped = records, dropped
}

// IngestMemo folds one place's verification-memo health push.
func (c *Collector) IngestMemo(placeName string, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes++
	p := c.place(placeName)
	p.memoHits, p.memoMisses = hits, misses
}

// Localized returns the compromise localization, or nil while the
// anomaly model has flagged nothing.
func (c *Collector) Localized() *Localization {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.loc == nil {
		return nil
	}
	l := *c.loc
	return &l
}

// place returns (creating on first sight) one place's health row.
// Caller holds mu.
func (c *Collector) place(name string) *place {
	p, ok := c.places[name]
	if !ok {
		p = newPlace(name)
		c.places[name] = p
		c.placeSeq = append(c.placeSeq, name)
	}
	return p
}

// link returns (creating on first sight) one link's health row.
// Caller holds mu.
func (c *Collector) link(from, to string) *link {
	k := linkKey{from, to}
	l, ok := c.links[k]
	if !ok {
		l = &link{from: from, to: to}
		c.links[k] = l
		c.linkSeq = append(c.linkSeq, k)
	}
	return l
}
