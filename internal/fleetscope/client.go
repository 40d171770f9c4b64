package fleetscope

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The structs below are fleetscope's pinned copies of the wire schemas
// it scrapes. They are deliberately NOT the producing packages' types:
// the fleet control plane talks to processes from other builds, so the
// JSON contract — field names and units — is the interface, and
// client_test.go round-trips real handler output through these structs
// to catch either side drifting.

// Coverage mirrors the freshness watchdog's /coverage.json surface.
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

// PlaceCoverage is one (place, policy) coverage row as served on the
// wire. AgeNS/LastFreshNS are what the trust-map merge runs on.
type PlaceCoverage struct {
	Place  string `json:"place"`
	Policy string `json:"policy"`
	Status string `json:"status"` // fresh | stale | lapsed | never-attested

	AgeNS       int64 `json:"age_ns"`
	LastFreshNS int64 `json:"last_fresh_ns"`
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

// AlertsSnapshot mirrors the watchdog's /alerts.json surface.
type AlertsSnapshot struct {
	Watchdog      string  `json:"watchdog"`
	Firing        int     `json:"firing"`
	FiredTotal    uint64  `json:"fired_total"`
	ResolvedTotal uint64  `json:"resolved_total"`
	ProbesTotal   uint64  `json:"probes_total"`
	ProbesOK      uint64  `json:"probes_ok"`
	Alerts        []Alert `json:"alerts"` // newest first
}

// Alert is one alert on the wire.
type Alert struct {
	ID     uint64 `json:"id"`
	Rule   string `json:"rule"`
	Place  string `json:"place"`
	Policy string `json:"policy"`
	State  string `json:"state"` // firing | resolved
	Reason string `json:"reason"`

	AgeNS      int64  `json:"age_ns"`
	FiredAtNS  int64  `json:"fired_at_ns"`
	FiredEval  uint64 `json:"fired_eval"`
	ResolvedNS int64  `json:"resolved_at_ns,omitempty"`
	Probes     uint64 `json:"probes"`
	ProbeOK    uint64 `json:"probes_ok"`
}

// MetricsSnapshot is the subset of /metrics.json fleetscope reads: flat
// name/labels/value triples (histograms additionally carry count/sum,
// which the rollup ignores).
type MetricsSnapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Metric is one sampled metric on the wire.
type Metric struct {
	Name   string        `json:"name"`
	Labels []MetricLabel `json:"labels,omitempty"`
	Value  float64       `json:"value"`
}

// MetricLabel is one name="value" dimension.
type MetricLabel struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Value sums every sample of a metric family across its label variants.
func (m MetricsSnapshot) Value(name string) float64 {
	var v float64
	for i := range m.Metrics {
		if m.Metrics[i].Name == name {
			v += m.Metrics[i].Value
		}
	}
	return v
}

// Observatory is the subset of /observatory.json fleetscope reads:
// anomaly flags per place and the compromise localization.
type Observatory struct {
	Collector    string             `json:"collector"`
	Frames       uint64             `json:"frames"`
	Traces       uint64             `json:"traces"`
	Verdicts     uint64             `json:"verdicts"`
	Places       []ObservatoryPlace `json:"places"`
	Localization *Localization      `json:"localization,omitempty"`
}

// ObservatoryPlace is one place-health row, reduced to what the fleet
// view needs.
type ObservatoryPlace struct {
	Place     string `json:"place"`
	Spans     uint64 `json:"spans"`
	Anomalous bool   `json:"anomalous"`
}

// Localization is a collector's compromise attribution.
type Localization struct {
	Place  string `json:"place"`
	Reason string `json:"reason"`
}

// HistoryIndex is the /history.json series index (no metric= query).
type HistoryIndex struct {
	Series []struct {
		ID string `json:"id"`
	} `json:"series"`
}

// ProfileSummary is the subset of the continuous profiler's
// /profile.json surface the fleet view reads: who the target is, how
// much of its CPU is attributed to RATS stages, the named hotspot and
// the top-function table the fleet-wide rollup merges.
type ProfileSummary struct {
	Service      string         `json:"service"`
	CapturedNS   int64          `json:"captured_ns"`
	Captures     uint64         `json:"captures"`
	TotalSeconds float64        `json:"total_seconds"`
	LabeledShare float64        `json:"labeled_share"`
	Hotspot      string         `json:"hotspot"`
	HotspotShare float64        `json:"hotspot_share"`
	Stages       []ProfileStage `json:"stages"`
	Top          []ProfileFunc  `json:"top"`
	Regressions  []struct {
		Kind   string `json:"kind"`
		What   string `json:"what"`
		Reason string `json:"reason"`
	} `json:"regressions,omitempty"`
}

// ProfileStage is one attributed (stage, place) CPU row on the wire.
type ProfileStage struct {
	Stage   string  `json:"stage"`
	Place   string  `json:"place"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// ProfileFunc is one top-function row on the wire.
type ProfileFunc struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// Paths of the scraped surfaces.
const (
	MetricsPath     = "/metrics.json"
	CoveragePath    = "/coverage.json"
	AlertsPath      = "/alerts.json"
	ObservatoryPath = "/observatory.json"
	HistoryPath     = "/history.json"
	ProfilePath     = "/profile.json"
)

// Client fetches one process's JSON surfaces with a hard per-request
// timeout and one immediate retry on transport errors (distinct from the
// scrape loop's exponential backoff, which paces whole attempts).
type Client struct {
	http    *http.Client
	retries int
}

// NewClient builds a client with the given per-request timeout.
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Client{http: &http.Client{Timeout: timeout}, retries: 1}
}

// errNotServed marks a surface the target does not mount (HTTP 404) —
// an attestd exposes /metrics.json but no /coverage.json, and that is a
// property of the target, not a failure.
type errNotServed struct{ path string }

func (e errNotServed) Error() string { return e.path + " not served" }

// IsNotServed reports whether err means the surface is absent rather
// than broken.
func IsNotServed(err error) bool {
	_, ok := err.(errNotServed)
	return ok
}

// GetJSON fetches base+path into out, retrying a transport error once.
func (c *Client) GetJSON(ctx context.Context, base, path string, out any) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(25 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue // transport error: retry
		}
		func() {
			defer resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusNotFound:
				lastErr = errNotServed{path}
			case resp.StatusCode != http.StatusOK:
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
				lastErr = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
			default:
				lastErr = json.NewDecoder(resp.Body).Decode(out)
			}
		}()
		if lastErr == nil || IsNotServed(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// Scrape is one successful collection from a target. Optional surfaces
// the target does not serve are nil/zero.
type Scrape struct {
	AtNS      int64
	LatencyNS int64

	Metrics     *MetricsSnapshot
	Coverage    *Coverage
	Alerts      *AlertsSnapshot
	Observatory *Observatory
	Profile     *ProfileSummary
	Series      int // /history.json index size, -1 when not served

	// EndpointErrs counts optional surfaces that errored (not 404) this
	// scrape; the scrape still succeeds if /metrics.json answered.
	EndpointErrs int
}

// ScrapeTarget collects every surface of one target. The scrape fails —
// returns an error — only when /metrics.json fails: that endpoint
// exists on every telemetry server, so its loss means the process is
// unreachable. The richer surfaces are best-effort per target shape.
func (c *Client) ScrapeTarget(ctx context.Context, t Target, clock func() time.Time) (*Scrape, error) {
	start := clock()
	s := &Scrape{Series: -1}

	var ms MetricsSnapshot
	if err := c.GetJSON(ctx, t.URL, MetricsPath, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name, err)
	}
	s.Metrics = &ms

	var cov Coverage
	switch err := c.GetJSON(ctx, t.URL, CoveragePath, &cov); {
	case err == nil:
		s.Coverage = &cov
	case !IsNotServed(err):
		s.EndpointErrs++
	}
	var al AlertsSnapshot
	switch err := c.GetJSON(ctx, t.URL, AlertsPath, &al); {
	case err == nil:
		s.Alerts = &al
	case !IsNotServed(err):
		s.EndpointErrs++
	}
	var obs Observatory
	switch err := c.GetJSON(ctx, t.URL, ObservatoryPath, &obs); {
	case err == nil:
		s.Observatory = &obs
	case !IsNotServed(err):
		s.EndpointErrs++
	}
	var hist HistoryIndex
	switch err := c.GetJSON(ctx, t.URL, HistoryPath, &hist); {
	case err == nil:
		s.Series = len(hist.Series)
	case !IsNotServed(err):
		s.EndpointErrs++
	}
	var prof ProfileSummary
	switch err := c.GetJSON(ctx, t.URL, ProfilePath, &prof); {
	case err == nil:
		s.Profile = &prof
	case !IsNotServed(err):
		s.EndpointErrs++
	}

	end := clock()
	s.AtNS = end.UnixNano()
	s.LatencyNS = end.Sub(start).Nanoseconds()
	return s, nil
}
