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
// time real hops, so only their verdict and localization lines, and the
// JSON snapshot's per-place verdict window fields and push count, are
// pinned.
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
