package freshness

import (
	"encoding/json"
	"net/http"
	"sort"

	"pera/internal/telemetry"
)

// PlaceCoverage is one (place, policy) row on the coverage map.
type PlaceCoverage struct {
	Place  string `json:"place"`
	Policy string `json:"policy"`
	Status Status `json:"status"`

	AgeNS       int64 `json:"age_ns"`        // 0 when never-attested
	LastFreshNS int64 `json:"last_fresh_ns"` // unix ns of last committed trust; 0 never
	PendingNS   int64 `json:"pending_ns,omitempty"`

	CachePuts    uint64 `json:"cache_puts"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheExpires uint64 `json:"cache_expires"`
	Verdicts     uint64 `json:"verdicts"`
	Fails        uint64 `json:"fails"`
	Probes       uint64 `json:"probes"`
	ProbesOK     uint64 `json:"probes_ok"`

	WindowSamples int     `json:"window_samples"`
	WindowBadFrac float64 `json:"window_bad_frac"`
	Tracked       bool    `json:"tracked"`
}

// Coverage is the watchdog's full coverage surface — what
// /coverage.json serves and attestctl coverage renders.
type Coverage struct {
	Watchdog string `json:"watchdog"`
	Policy   string `json:"policy"`
	NowNS    int64  `json:"now_ns"`

	BudgetFreshNS  int64   `json:"budget_fresh_ns"`
	BudgetLapsedNS int64   `json:"budget_lapsed_ns"`
	SLOTarget      float64 `json:"slo_target"`

	Fresh  int `json:"fresh"`
	Stale  int `json:"stale"`
	Lapsed int `json:"lapsed"`
	Never  int `json:"never_attested"`

	Evaluations uint64          `json:"evaluations"`
	Places      []PlaceCoverage `json:"places"`
}

// AlertsSnapshot is the alert ring's JSON surface — what /alerts.json
// serves and attestctl alerts renders.
type AlertsSnapshot struct {
	Watchdog      string  `json:"watchdog"`
	Firing        int     `json:"firing"`
	FiredTotal    uint64  `json:"fired_total"`
	ResolvedTotal uint64  `json:"resolved_total"`
	ProbesTotal   uint64  `json:"probes_total"`
	ProbesOK      uint64  `json:"probes_ok"`
	Alerts        []Alert `json:"alerts"` // newest first
}

// Coverage renders the current coverage map. Places appear in
// first-seen order (path order on a single chain).
func (w *Watchdog) Coverage() Coverage {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.cfg.Clock()
	cov := Coverage{
		Watchdog:       w.name,
		Policy:         policy,
		NowNS:          now.UnixNano(),
		BudgetFreshNS:  int64(w.cfg.Budget.FreshFor),
		BudgetLapsedNS: int64(w.cfg.Budget.LapsedAfter),
		SLOTarget:      sloTarget,
		Evaluations:    w.evals,
	}
	for _, place := range w.rowSeq {
		r := w.rows[place]
		st, age := w.statusLocked(r, now)
		pc := PlaceCoverage{
			Place: place, Policy: policy, Status: st,
			AgeNS:        int64(age),
			CachePuts:    r.puts,
			CacheHits:    r.hits,
			CacheExpires: r.expires,
			Verdicts:     r.verdicts,
			Fails:        r.fails,
			Probes:       r.probes,
			ProbesOK:     r.probeOK,
			Tracked:      r.tracked,
		}
		if !r.lastFresh.IsZero() {
			pc.LastFreshNS = r.lastFresh.UnixNano()
		}
		if !r.pending.IsZero() {
			pc.PendingNS = r.pending.UnixNano()
		}
		pc.WindowSamples = r.winN
		if r.winN > 0 {
			pc.WindowBadFrac = float64(r.winBad) / float64(r.winN)
		}
		switch st {
		case StatusFresh:
			cov.Fresh++
		case StatusStale:
			cov.Stale++
		case StatusLapsed:
			cov.Lapsed++
		case StatusNever:
			cov.Never++
		}
		cov.Places = append(cov.Places, pc)
	}
	return cov
}

// Alerts renders the alert ring, newest first.
func (w *Watchdog) Alerts() AlertsSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := AlertsSnapshot{
		Watchdog:      w.name,
		FiredTotal:    w.firedTotal,
		ResolvedTotal: w.resolvedTotal,
		ProbesTotal:   w.probesTotal,
		ProbesOK:      w.probeOKTotal,
	}
	for _, a := range w.ring {
		snap.Alerts = append(snap.Alerts, *a)
		if a.State == StateFiring {
			snap.Firing++
		}
	}
	sort.Slice(snap.Alerts, func(i, j int) bool { return snap.Alerts[i].ID > snap.Alerts[j].ID })
	return snap
}

// Paths on the telemetry server.
const (
	CoveragePath = "/coverage.json"
	AlertsPath   = "/alerts.json"
)

// CoverageHandler serves Coverage as indented JSON.
func (w *Watchdog) CoverageHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(w.Coverage())
	})
}

// AlertsHandler serves AlertsSnapshot as indented JSON.
func (w *Watchdog) AlertsHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(w.Alerts())
	})
}

// Endpoints mounts both surfaces on the shared telemetry server. Nil
// receiver yields nothing, so callers can pass through unconditionally.
func (w *Watchdog) Endpoints() []telemetry.Endpoint {
	if w == nil {
		return nil
	}
	return []telemetry.Endpoint{
		{Path: CoveragePath, Desc: "freshness coverage map (per-place evidence age)", Handler: w.CoverageHandler()},
		{Path: AlertsPath, Desc: "freshness alert ring (firing + resolved)", Handler: w.AlertsHandler()},
	}
}
