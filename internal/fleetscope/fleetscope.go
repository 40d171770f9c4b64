// Package fleetscope is the fleet-wide attestation observability
// control plane: it discovers attestation processes (attestd, appraised,
// perasim, any telemetry-serving binary), scrapes each one's existing
// HTTP surfaces (/metrics.json, /coverage.json, /alerts.json,
// /observatory.json, /history.json) on a cadence, and merges the
// answers into one fleet model — a global trust map over places, fleet
// rollup metrics, and a deduplicated alert/anomaly feed.
//
// Every observability layer built before this one (telemetry,
// observatory, tracing, flight recorder, freshness watchdog) is
// per-process: an operator running several attestd/appraised/perasim
// instances has no single answer to "is the network trustworthy right
// now?". ScaRR (PAPERS.md) argues that decoupled, scaled-out
// verification only works when verification state is observable across
// the verifier fleet; fleetscope is that observation layer, and the
// measurement substrate the federated appraisal cluster (ROADMAP) will
// be benched on.
//
// Design constraints:
//
//   - A dead target degrades the fleet view, never blocks it: each
//     target is scraped by its own loop with a per-target timeout,
//     failures back off exponentially, and health is an explicit
//     up/stale/down state on the target row rather than an error that
//     propagates.
//   - Cross-process disagreement is first-class: when one appraiser's
//     coverage says a place is fresh and another's says lapsed, the
//     merged trust map keeps the freshest committed evidence AND emits a
//     status-conflict finding naming both reporters, because divergent
//     verifier state is itself an attestation signal (a partitioned or
//     lagging appraiser, or a device answering probes selectively).
//   - The fleet surface speaks the same protocols as the per-process
//     ones: /fleet.json for operators and tests, and a Prometheus
//     registry (pera_fleet_*) served from the same telemetry mux as a
//     federation endpoint for an off-the-shelf scraper.
package fleetscope

import (
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"
)

// Target health states. A target is up while scrapes succeed, stale
// after the first failure (or when its loop stops reporting), and down
// after DownAfter consecutive failures — so a killed process is marked
// down within two scrape intervals.
const (
	StateUp    = "up"
	StateStale = "stale"
	StateDown  = "down"
)

// Target is one scrape target: a name (the label on every fleet metric
// and trust-map report) and the base URL of its telemetry server.
type Target struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ParseTargets parses a comma-separated target list. Each entry is
// either "name=url" or a bare URL (the name then defaults to the URL's
// host:port). A URL without a scheme is http; it must be an http or
// https URL with a host and no query or fragment, and it is kept
// without trailing slashes, so the scrape paths append to it. Entries
// are trimmed; empty entries are skipped; a duplicate name is an error
// because it would silently shadow a target.
func ParseTargets(s string) ([]Target, error) {
	var out []Target
	seen := make(map[string]bool)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		t, err := parseTarget(entry)
		if err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("duplicate target name %q", t.Name)
		}
		seen[t.Name] = true
		out = append(out, t)
	}
	return out, nil
}

// parseTarget parses one "name=url" or bare-URL entry.
func parseTarget(entry string) (Target, error) {
	name, raw := "", entry
	if i := strings.Index(entry, "="); i >= 0 {
		name, raw = strings.TrimSpace(entry[:i]), strings.TrimSpace(entry[i+1:])
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return Target{}, fmt.Errorf("target %q: %v", entry, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" || u.Hostname() == "" {
		return Target{}, fmt.Errorf("target %q: not an http or https URL with a host", entry)
	}
	if strings.ContainsAny(raw, "?#") {
		return Target{}, fmt.Errorf("target %q: a base URL takes no query or fragment", entry)
	}
	if name == "" {
		name = u.Host
	}
	if strings.Contains(name, "=") {
		return Target{}, fmt.Errorf("target %q: name %q contains '='", entry, name)
	}
	return Target{Name: name, URL: strings.TrimRight(u.String(), "/")}, nil
}

// LoadTargetsFile reads a targets file: one target per line in the same
// "name=url" / bare-URL syntax as ParseTargets, with blank lines and
// #-comments ignored. The file is re-read by the aggregator whenever its
// modification time changes, so targets can be added or drained without
// restarting fleetd.
func LoadTargetsFile(path string) ([]Target, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Target
	seen := make(map[string]bool)
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseTarget(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("%s:%d: duplicate target name %q", path, i+1, t.Name)
		}
		seen[t.Name] = true
		out = append(out, t)
	}
	return out, nil
}

// mergeTargets combines the static list with the file list; on a name
// collision the file entry wins (the file is the operational override).
func mergeTargets(static, file []Target) []Target {
	byName := make(map[string]int, len(static))
	out := append([]Target(nil), static...)
	for i, t := range out {
		byName[t.Name] = i
	}
	for _, t := range file {
		if i, ok := byName[t.Name]; ok {
			out[i] = t
			continue
		}
		byName[t.Name] = len(out)
		out = append(out, t)
	}
	return out
}

// sortedNames returns map keys in sorted order (deterministic views).
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nowNS is the aggregator's clock in unix nanoseconds.
func nowNS(clock func() time.Time) int64 { return clock().UnixNano() }
