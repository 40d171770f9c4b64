package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.golden from this build")

// TestGolden pins the deterministic output of the two scenario runners,
// the runs that exercise the watchdog's and the collector's constants
// end to end. The trust-decay runs run on a simulated clock and are
// pinned whole: stdout, stderr and exit status. The observatory runs
// time real hops, so only what is not a time is pinned: their verdict
// and localization lines, the JSON snapshot's per-place verdict window
// fields and push count, and, in observe_hops_json, every other field
// of the snapshot that is not a time.
func TestGolden(t *testing.T) {
	cases := []struct {
		name   string
		args   string
		filter func(t *testing.T, stdout, stderr string) string
	}{
		{"slo", "-slo", whole},
		{"slo_norecover", "-slo -slo-recover -1", whole},
		{"slo_json", "-slo -json", whole},
		{"observe", "-observe", observeLines},
		{"observe_json", "-observe -json", observeWindows},
		{"observe_hops_json", "-observe -json", observeHopRows},

		// Runs that cross the boundaries the default ones never reach:
		// a swap inside the collector's baseline, a swap late enough
		// that passes stay in the final outcome window and a packet
		// count the push cadence does not divide, and a one-second TTL
		// whose frozen place breaches as the burn window fills.
		{"observe_early", "-observe -observe-packets 45", observeLines},
		{"observe_90_json", "-observe -observe-packets 90 -json", observeWindows},
		{"slo_ttl1", "-slo -slo-ttl 1 -slo-freeze 1", whole},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, exit := runPerasim(t, strings.Fields(tc.args)...)
			got := fmt.Sprintf("exit %d\n%s", exit, tc.filter(t, stdout, stderr))
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("perasim %s differs from %s\ngot:\n%s\nwant:\n%s", tc.args, path, got, want)
			}
		})
	}
}

func whole(_ *testing.T, stdout, stderr string) string {
	return "-- stdout --\n" + stdout + "-- stderr --\n" + stderr
}

// observeLines keeps the adversary, verdict and localization lines of
// the observatory run's stderr.
func observeLines(_ *testing.T, _, stderr string) string {
	var b strings.Builder
	b.WriteString("-- stderr (adversary, verdicts, localized) --\n")
	for _, line := range strings.SplitAfter(stderr, "\n") {
		for _, prefix := range []string{"adversary ", "verdicts: ", "localized: "} {
			if strings.HasPrefix(line, prefix) {
				b.WriteString(line)
			}
		}
	}
	return b.String()
}

// observeWindows keeps each place's verdict window from the snapshot
// that -observe -json writes: observations, failures, window fail rate,
// the anomaly flag and the verdict it was raised at; and the count of
// health pushes the collector took.
func observeWindows(t *testing.T, stdout, _ string) string {
	var snap struct {
		Pushes uint64 `json:"pushes"`
		Places []struct {
			Place          string  `json:"place"`
			Observed       uint64  `json:"observed"`
			Fails          uint64  `json:"fails"`
			WindowFailRate float64 `json:"window_fail_rate"`
			Anomalous      bool    `json:"anomalous"`
			FlaggedAt      uint64  `json:"flagged_at"`
		} `json:"places"`
	}
	if err := json.Unmarshal([]byte(stdout), &snap); err != nil {
		t.Fatalf("perasim -observe -json: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- stdout pushes --\n%d\n", snap.Pushes)
	b.WriteString("-- stdout places (observed, fails, window_fail_rate, anomalous, flagged_at) --\n")
	for _, p := range snap.Places {
		fmt.Fprintf(&b, "%s observed=%d fails=%d window_fail_rate=%v anomalous=%v flagged_at=%d\n",
			p.Place, p.Observed, p.Fails, p.WindowFailRate, p.Anomalous, p.FlaggedAt)
	}
	return b.String()
}

// observeHopRows keeps every field of the -observe -json snapshot that is
// not a time: the frame and trace counts; each place's hop, evidence,
// cache, guard and sampler counts and its pushed packet and verify
// counts; each link's frames and evidence bytes; and each serialized
// path's flow, verdict, failing place, truncation and hop rows.
func observeHopRows(t *testing.T, stdout, _ string) string {
	var snap struct {
		Frames uint64 `json:"frames"`
		Traces uint64 `json:"traces"`
		Places []struct {
			Place        string `json:"place"`
			Spans        uint64 `json:"spans"`
			EvBytes      uint64 `json:"ev_bytes"`
			CacheHits    uint64 `json:"cache_hits"`
			CacheMisses  uint64 `json:"cache_misses"`
			GuardRejects uint64 `json:"guard_rejects"`
			SampleSkips  uint64 `json:"sample_skips"`
			Packets      uint64 `json:"packets"`
			VerifyOps    uint64 `json:"verify_ops"`
		} `json:"places"`
		Links []struct {
			From    string `json:"from"`
			To      string `json:"to"`
			Frames  uint64 `json:"frames"`
			EvBytes uint64 `json:"ev_bytes"`
		} `json:"links"`
		Paths []struct {
			Flow      string `json:"flow"`
			Verdict   string `json:"verdict"`
			FailPlace string `json:"fail_place"`
			Truncated bool   `json:"truncated"`
			Hops      []struct {
				Place        string `json:"place"`
				Flags        uint8  `json:"flags"`
				EvBytes      uint64 `json:"ev_bytes"`
				CacheHits    uint64 `json:"cache_hits"`
				CacheMisses  uint64 `json:"cache_misses"`
				GuardRejects uint64 `json:"guard_rejects"`
				SampleSkips  uint64 `json:"sample_skips"`
			} `json:"hops"`
		} `json:"paths"`
	}
	if err := json.Unmarshal([]byte(stdout), &snap); err != nil {
		t.Fatalf("perasim -observe -json: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- stdout frames, traces --\n%d %d\n", snap.Frames, snap.Traces)
	b.WriteString("-- stdout places (spans, ev_bytes, cache_hits, cache_misses, guard_rejects, sample_skips, packets, verify_ops) --\n")
	for _, p := range snap.Places {
		fmt.Fprintf(&b, "%s spans=%d ev_bytes=%d cache=%d/%d guard_rejects=%d sample_skips=%d packets=%d verify_ops=%d\n",
			p.Place, p.Spans, p.EvBytes, p.CacheHits, p.CacheMisses, p.GuardRejects, p.SampleSkips, p.Packets, p.VerifyOps)
	}
	b.WriteString("-- stdout links (frames, ev_bytes) --\n")
	for _, l := range snap.Links {
		fmt.Fprintf(&b, "%s->%s frames=%d ev_bytes=%d\n", l.From, l.To, l.Frames, l.EvBytes)
	}
	b.WriteString("-- stdout paths (flow, verdict, fail_place, truncated; hop place, flags, ev_bytes, cache, guard_rejects, sample_skips) --\n")
	for _, p := range snap.Paths {
		fmt.Fprintf(&b, "%s verdict=%s fail_place=%s truncated=%v\n", p.Flow, p.Verdict, p.FailPlace, p.Truncated)
		for _, h := range p.Hops {
			fmt.Fprintf(&b, "  %s flags=%d ev_bytes=%d cache=%d/%d guard_rejects=%d sample_skips=%d\n",
				h.Place, h.Flags, h.EvBytes, h.CacheHits, h.CacheMisses, h.GuardRejects, h.SampleSkips)
		}
	}
	return b.String()
}
