package observatory

import (
	"sort"

	"pera/internal/pera"
)

// place is one place's live health row. All access is under Collector.mu.
type place struct {
	name string

	// From hop rows (Switch.Subscribe).
	spans        uint64
	evBytes      uint64
	cacheHits    uint64
	cacheMisses  uint64
	guardRejects uint64
	sampleSkips  uint64
	lat          ring // hop TotalNS samples

	// From appraisal verdicts (the appraiser's appraise envelope).
	obs       uint64 // outcomes observed
	fails     uint64 // failures attributed to this place
	win       []bool // rolling outcome window, true = attributed failure
	winHead   int
	winN      int
	winFails  int
	baseObs   int
	baseFails int
	flagged   bool
	flaggedAt uint64 // verdict count at first flagging (0 = never)

	// From periodic pushes.
	stats        pera.Stats
	statsSet     bool
	auditRecords uint64
	auditDropped uint64
	memoHits     uint64
	memoMisses   uint64
}

func newPlace(name string) *place {
	return &place{
		name: name,
		lat:  ring{buf: make([]float64, 0, latencyRing)},
		win:  make([]bool, window),
	}
}

// observe folds one appraisal outcome into the rolling window and the
// baseline, then re-evaluates the anomaly condition: a window failure
// rate departing the baseline by more than the threshold. The baseline
// is the place's first baseline outcomes — "what this hop looked like
// when the operator turned the collector on". One unlucky packet cannot
// flag a place: while the window holds only the baseline the two rates
// are equal, and after a clean baseline of 16 it takes 6 failures
// (6/22 > 0.25) to depart by more than the threshold.
func (p *place) observe(fail bool) {
	p.obs++
	if fail {
		p.fails++
	}
	if int(p.obs) <= baseline {
		p.baseObs++
		if fail {
			p.baseFails++
		}
	}
	if p.winN < len(p.win) {
		p.win[p.winN] = fail
		p.winN++
		if fail {
			p.winFails++
		}
	} else {
		if p.win[p.winHead] {
			p.winFails--
		}
		p.win[p.winHead] = fail
		if fail {
			p.winFails++
		}
		p.winHead = (p.winHead + 1) % len(p.win)
	}
	if !p.flagged && p.windowRate()-p.baselineRate() > threshold {
		p.flagged = true
	}
}

func (p *place) windowRate() float64 {
	if p.winN == 0 {
		return 0
	}
	return float64(p.winFails) / float64(p.winN)
}

func (p *place) baselineRate() float64 {
	if p.baseObs == 0 {
		return 0
	}
	return float64(p.baseFails) / float64(p.baseObs)
}

// link is one directed link's health row (from → to), observed from
// consecutive hops on path traces.
type link struct {
	from    string
	to      string
	frames  uint64
	evBytes uint64 // evidence bytes added at the receiving end
}

// ring is a bounded sample ring for latency quantiles.
type ring struct {
	buf  []float64
	head int
}

func (r *ring) push(v float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// quantiles returns p50/p95/p99 over the retained samples (zeros when
// empty). Sorting a copy keeps push O(1) on the ingest path.
func (r *ring) quantiles() (p50, p95, p99 float64) {
	n := len(r.buf)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), r.buf...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(n-1)+0.5)] }
	return at(0.50), at(0.95), at(0.99)
}
