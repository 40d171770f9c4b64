// Package observatory is the network-wide observability plane for PERA
// paths. The paper's Fig. 1 appraiser sees only end-of-path evidence;
// the observatory answers the question that view cannot: *which hop* is
// slow, failing, or compromised.
//
// Three pieces compose it:
//
//   - In-band hop spans (pera.HopSpan): each span-enabled hop appends a
//     compact record of its processing to the in-band header, riding
//     the same frame as the evidence chain (INT lineage).
//   - The out-of-band Collector here: attachable to any netsim topology
//     (as a node or as a terminal-host observer), it pops terminal
//     spans, reassembles end-to-end path traces keyed by nonce/flow,
//     ingests periodic telemetry pushes from every place, and maintains
//     per-place and per-link health.
//   - Compromise localization: the Collector is a telemetry.StageSink
//     subscribed to the appraiser's appraise envelope
//     (Appraiser.Subscribe), so every verdict trains a rolling window at
//     each place whose signature the appraiser verified, failing only
//     the place its provenance names (which switch's claim failed the
//     golden comparison); the first place whose failure rate departs
//     its baseline is flagged — a UC1 program swap is attributed to the
//     specific switch, not just "path failed". The span trail gives
//     per-hop timing, link health and the trace's verdict join, never
//     attribution: it is unsigned, and sampled.
package observatory

import (
	"fmt"
	"slices"
	"sync"

	"pera/internal/netsim"
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

// PathTrace is one reassembled end-to-end trace: the ordered hop spans a
// frame accumulated, joined with the appraisal verdict for its flow.
type PathTrace struct {
	Seq       uint64         `json:"seq"`
	Flow      string         `json:"flow"`
	Hops      []pera.HopSpan `json:"hops"`
	Truncated bool           `json:"truncated"`
	Verdict   string         `json:"verdict,omitempty"` // PASS / FAIL, "" until appraised
	FailPlace string         `json:"fail_place,omitempty"`
	FailStage string         `json:"fail_stage,omitempty"`
	Reason    string         `json:"reason,omitempty"`
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

// Collector is the out-of-band observatory node. It is safe for
// concurrent use (netsim delivery, appraisal workers and stats pushers
// may all feed it at once) and implements netsim.Node and
// telemetry.StageSink.
type Collector struct {
	name string

	mu       sync.Mutex
	places   map[string]*place
	placeSeq []string // first-seen order ≈ path order
	links    map[linkKey]*link
	linkSeq  []linkKey
	paths    []*PathTrace // ring, capacity pathCapacity
	pathHead int
	byFlow   map[string]*PathTrace // awaiting a verdict
	seq      uint64                // traces ingested (monotonic)
	verdicts uint64
	pushes   uint64 // stats/audit/memo pushes
	frames   uint64 // frames inspected
	loc      *Localization
}

// New creates a collector. The name is its netsim node identity.
func New(name string) *Collector {
	return &Collector{
		name:   name,
		places: make(map[string]*place),
		links:  make(map[linkKey]*link),
		byFlow: make(map[string]*PathTrace),
	}
}

// Name implements netsim.Node.
func (c *Collector) Name() string { return c.name }

// Receive implements netsim.Node: frames routed to the collector are
// ingested and sunk (it never forwards).
func (c *Collector) Receive(port uint64, frame []byte) ([]netsim.Emission, error) {
	c.IngestFrame(frame)
	return nil, nil
}

// AttachHost taps a terminal host so every delivered frame is ingested —
// the usual deployment: the collector shadows the path's destination
// without occupying a topology port.
func (c *Collector) AttachHost(h *netsim.Host) {
	h.Tap(func(_ uint64, frame []byte) { c.IngestFrame(frame) })
}

// IngestFrame inspects one terminal frame: if it carries a PERA header
// with hop spans, the span trail becomes a path trace. Returns whether a
// trace was ingested.
func (c *Collector) IngestFrame(frame []byte) bool {
	c.mu.Lock()
	c.frames++
	c.mu.Unlock()
	if !pera.HasHeader(frame) {
		return false
	}
	hdr, _, err := pera.Pop(frame)
	if err != nil || (len(hdr.Spans) == 0 && !hdr.SpansTruncated) {
		return false
	}
	c.IngestPath(pera.FlowID(hdr), hdr.Spans, hdr.SpansTruncated)
	return true
}

// IngestPath records one reassembled path trace (flow-keyed) and folds
// each hop's span into that place's health. Exposed for out-of-band
// span transports; in-band callers use IngestFrame.
func (c *Collector) IngestPath(flow string, hops []pera.HopSpan, truncated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	pt := &PathTrace{Seq: c.seq, Flow: flow, Hops: append([]pera.HopSpan(nil), hops...), Truncated: truncated}
	// Ring insert; evict the oldest trace's pending-verdict entry with it.
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
	for i := range hops {
		sp := &hops[i]
		p := c.place(sp.Place)
		p.spans++
		p.evBytes += uint64(sp.EvBytes)
		p.cacheHits += uint64(sp.CacheHits)
		p.cacheMisses += uint64(sp.CacheMisses)
		p.guardRejects += uint64(sp.GuardRejects)
		p.sampleSkips += uint64(sp.SampleSkips)
		p.lat.push(float64(sp.TotalNS))
		if i > 0 {
			l := c.link(hops[i-1].Place, sp.Place)
			l.frames++
			l.evBytes += uint64(sp.EvBytes)
		}
	}
}

// StageOpened implements telemetry.StageSink; an appraisal's start
// carries nothing the collector reads.
func (c *Collector) StageOpened(telemetry.StageEvent) {}

// StageEnded implements telemetry.StageSink for the appraiser's appraise
// envelope: the verdict joins the pending path trace for its flow, and
// every place whose signature the appraiser verified (ev.Signers)
// receives an appraisal outcome — a failure is attributed only to the
// place the verdict's provenance names, which is what trains the
// per-place anomaly windows to localize rather than blame the whole
// path. The named place learns of its failure even when its signature
// is not among them. An appraisal that failed operationally (Err, e.g.
// a nonce replay) rendered no verdict and is skipped.
func (c *Collector) StageEnded(ev telemetry.StageEvent) {
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
