package profiler

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"pera/internal/freshness"
)

// StageCost is one attributed (stage, place) row of a profile summary.
type StageCost struct {
	Stage   string  `json:"stage"`
	Place   string  `json:"place"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// FuncCost is one flat (leaf) function row.
type FuncCost struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// Finding is one profile_regression: a stage or function whose CPU
// share grew past the configured delta relative to the pinned baseline.
type Finding struct {
	Kind      string  `json:"kind"` // "stage" | "function"
	What      string  `json:"what"` // stage or function name
	Place     string  `json:"place,omitempty"`
	BaseShare float64 `json:"base_share"`
	CurShare  float64 `json:"cur_share"`
	Delta     float64 `json:"delta"`
	TSNS      int64   `json:"ts_ns"`
	Reason    string  `json:"reason"`
}

// key dedups refires: a finding stays latched while it breaches and can
// fire again only after dropping back under the threshold.
func (f *Finding) key() string { return f.Kind + "|" + f.What + "|" + f.Place }

// StageDelta is one baseline-vs-current stage row of a TopDiff.
type StageDelta struct {
	Stage     string  `json:"stage"`
	Place     string  `json:"place"`
	BaseShare float64 `json:"base_share"`
	CurShare  float64 `json:"cur_share"`
	Delta     float64 `json:"delta"`
}

// FuncDelta is one baseline-vs-current function row of a TopDiff.
type FuncDelta struct {
	Name      string  `json:"name"`
	BaseShare float64 `json:"base_share"`
	CurShare  float64 `json:"cur_share"`
	Delta     float64 `json:"delta"`
}

// TopDiff is the full baseline comparison: every stage and every
// function appearing in either profile, sorted by share regression.
// This is the top_diff.json an incident bundle carries.
type TopDiff struct {
	BaselineNS      int64        `json:"baseline_ns"`
	CurrentNS       int64        `json:"current_ns"`
	BaselineSeconds float64      `json:"baseline_seconds"`
	CurrentSeconds  float64      `json:"current_seconds"`
	Stages          []StageDelta `json:"stages"`
	Functions       []FuncDelta  `json:"functions"`
	Findings        []Finding    `json:"findings,omitempty"`
}

// Summary is the decoded state /profile.json serves: the newest capture
// window's attribution plus lifetime counters, the artifact kinds
// available for raw download, and the most recent regression findings.
// fleetscope pins a subset of this wire shape (see fleetscope.ProfileSummary).
type Summary struct {
	Service        string      `json:"service"`
	CapturedNS     int64       `json:"captured_ns"`
	WindowNS       int64       `json:"window_ns"`
	Captures       uint64      `json:"captures"`
	Samples        int         `json:"samples"`
	TotalSeconds   float64     `json:"total_seconds"`
	LabeledSeconds float64     `json:"labeled_seconds"`
	LabeledShare   float64     `json:"labeled_share"`
	Hotspot        string      `json:"hotspot"`
	HotspotShare   float64     `json:"hotspot_share"`
	Stages         []StageCost `json:"stages"`
	Top            []FuncCost  `json:"top"`
	Kinds          []string    `json:"kinds"`
	Baseline       bool        `json:"baseline"`
	Diff           *TopDiff    `json:"diff,omitempty"`
	Regressions    []Finding   `json:"regressions,omitempty"`
}

// maxFindings bounds the retained finding ring.
const maxFindings = 32

// Summary renders the profiler state over the given lookback window
// (0 = the newest capture window only).
func (p *Profiler) Summary(lookback time.Duration) Summary {
	if p == nil {
		return Summary{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Summary{
		Service:  p.opts.Service,
		Captures: p.captures.Load(),
		Baseline: p.baseline != nil,
	}
	var w window
	switch {
	case len(p.windows) == 0:
		return s
	case lookback <= 0:
		w = p.windows[len(p.windows)-1]
	default:
		cut := p.now() - int64(lookback)
		lo := len(p.windows)
		for lo > 0 && p.windows[lo-1].tsNS >= cut {
			lo--
		}
		w = mergeWindows(p.windows[lo:])
	}
	w.fill(&s)
	for _, kind := range Kinds {
		if len(p.artifacts[kind]) > 0 {
			s.Kinds = append(s.Kinds, kind)
		}
	}
	if p.baseline != nil {
		d := diffWindows(p.baseline, &w)
		s.Diff = &d
	}
	if len(p.findings) > 0 {
		s.Regressions = append([]Finding(nil), p.findings...)
	}
	return s
}

// Summarize attributes a raw CPU profile, such as an exported cpu.pprof,
// with the steps a live capture runs (attribute in ingestCPU, fill in
// Summary), so its summary equals the live one.
func Summarize(data []byte) (Summary, error) {
	w, err := attribute(data)
	s := Summary{Captures: 1}
	w.fill(&s)
	return s, err
}

// fill writes a window's time span, totals, stage and top-n tables.
func (w *window) fill(s *Summary) {
	s.CapturedNS = w.tsNS
	s.WindowNS = w.durNS
	s.Samples = w.samples
	s.TotalSeconds = w.total
	s.LabeledSeconds = w.labeled
	if w.total > 0 {
		s.LabeledShare = w.labeled / w.total
	}
	s.Stages = sortedStages(w)
	s.Top = sortedFuncs(w)
	if len(s.Top) > 0 {
		s.Hotspot, s.HotspotShare = s.Top[0].Name, s.Top[0].Share
	}
}

// Diff renders the full baseline comparison against the newest window,
// or false when no baseline is pinned or nothing was captured yet.
func (p *Profiler) Diff() (TopDiff, bool) {
	if p == nil {
		return TopDiff{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.baseline == nil || len(p.windows) == 0 {
		return TopDiff{}, false
	}
	w := p.windows[len(p.windows)-1]
	return diffWindows(p.baseline, &w), true
}

// TopDiffJSON marshals the current baseline diff for incident bundles
// (nil when no baseline comparison exists yet).
func (p *Profiler) TopDiffJSON() []byte {
	d, ok := p.Diff()
	if !ok {
		return nil
	}
	b, err := json.MarshalIndent(&d, "", " ")
	if err != nil {
		return nil
	}
	return b
}

// share is a safe division.
func share(sec, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return sec / total
}

// diffWindows builds the stage/function share comparison between a
// baseline and a current window and extracts findings over the
// stage and function deltas.
func diffWindows(base, cur *window) TopDiff {
	d := TopDiff{
		BaselineNS: base.tsNS, CurrentNS: cur.tsNS,
		BaselineSeconds: base.total, CurrentSeconds: cur.total,
	}
	seen := make(map[stageKey]bool, len(base.stages)+len(cur.stages))
	for k := range base.stages {
		seen[k] = true
	}
	for k := range cur.stages {
		seen[k] = true
	}
	for k := range seen {
		sd := StageDelta{
			Stage: k.stage, Place: k.place,
			BaseShare: share(base.stages[k], base.total),
			CurShare:  share(cur.stages[k], cur.total),
		}
		sd.Delta = sd.CurShare - sd.BaseShare
		d.Stages = append(d.Stages, sd)
	}
	sort.Slice(d.Stages, func(i, j int) bool {
		if d.Stages[i].Delta != d.Stages[j].Delta {
			return d.Stages[i].Delta > d.Stages[j].Delta
		}
		if d.Stages[i].Stage != d.Stages[j].Stage {
			return d.Stages[i].Stage < d.Stages[j].Stage
		}
		return d.Stages[i].Place < d.Stages[j].Place
	})

	fseen := make(map[string]bool, len(base.funcs)+len(cur.funcs))
	for f := range base.funcs {
		fseen[f] = true
	}
	for f := range cur.funcs {
		fseen[f] = true
	}
	for f := range fseen {
		fd := FuncDelta{
			Name:      f,
			BaseShare: share(base.funcs[f], base.total),
			CurShare:  share(cur.funcs[f], cur.total),
		}
		fd.Delta = fd.CurShare - fd.BaseShare
		d.Functions = append(d.Functions, fd)
	}
	sort.Slice(d.Functions, func(i, j int) bool {
		if d.Functions[i].Delta != d.Functions[j].Delta {
			return d.Functions[i].Delta > d.Functions[j].Delta
		}
		return d.Functions[i].Name < d.Functions[j].Name
	})

	if cur.total < minSeconds || base.total < minSeconds {
		return d // shares of a near-idle window are noise, never findings
	}
	for _, sd := range d.Stages {
		if sd.Delta >= stageDeltaMin {
			d.Findings = append(d.Findings, Finding{
				Kind: "stage", What: sd.Stage, Place: sd.Place,
				BaseShare: sd.BaseShare, CurShare: sd.CurShare, Delta: sd.Delta,
				TSNS: cur.tsNS,
				Reason: fmt.Sprintf("stage %s at %s grew from %.0f%% to %.0f%% of CPU (+%.0f pts vs baseline)",
					sd.Stage, sd.Place, sd.BaseShare*100, sd.CurShare*100, sd.Delta*100),
			})
		}
	}
	for _, fd := range d.Functions {
		if fd.Delta >= funcDeltaMin {
			d.Findings = append(d.Findings, Finding{
				Kind: "function", What: fd.Name,
				BaseShare: fd.BaseShare, CurShare: fd.CurShare, Delta: fd.Delta,
				TSNS: cur.tsNS,
				Reason: fmt.Sprintf("function %s grew from %.0f%% to %.0f%% of CPU (+%.0f pts vs baseline)",
					fd.Name, fd.BaseShare*100, fd.CurShare*100, fd.Delta*100),
			})
		}
	}
	return d
}

// evaluate diffs one freshly-ingested window against the baseline and
// dispatches new findings through the sink pipeline. Findings stay
// latched while they breach: a persistent regression fires once, not
// once per window.
func (p *Profiler) evaluate(base, cur *window) {
	d := diffWindows(base, cur)

	p.mu.Lock()
	fresh := make([]Finding, 0, len(d.Findings))
	live := make(map[string]bool, len(d.Findings))
	for _, f := range d.Findings {
		live[f.key()] = true
		if !p.breaching[f.key()] {
			p.breaching[f.key()] = true
			fresh = append(fresh, f)
		}
	}
	for k := range p.breaching {
		if !live[k] {
			delete(p.breaching, k)
		}
	}
	if len(fresh) > 0 {
		p.findings = append(p.findings, fresh...)
		if len(p.findings) > maxFindings {
			p.findings = p.findings[len(p.findings)-maxFindings:]
		}
	}
	p.mu.Unlock()

	for i := range fresh {
		p.dispatch(&fresh[i])
	}
}

// dispatch publishes one finding through the freshness sink pipeline —
// the same stderr/audit-ledger (and recorder bundling) fan-out
// alerts and anomalies ride.
func (p *Profiler) dispatch(f *Finding) {
	p.regressions.Add(1)
	e := freshness.Event{
		Kind: freshness.KindProfile,
		Alert: freshness.Alert{
			Rule:      "profile_regression:" + f.Kind + ":" + f.What,
			Place:     f.Place,
			State:     freshness.StateFiring,
			Reason:    f.Reason,
			FiredAtNS: f.TSNS,
		},
	}
	p.sinkMu.RLock()
	sinks := p.sinks
	p.sinkMu.RUnlock()
	for _, s := range sinks {
		s.Emit(e)
	}
}
