package fleetscope

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pera/internal/telemetry"
)

// metricsServer is a minimal live target: a real HTTP server with a
// real /metrics.json.
func metricsServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(telemetry.Handler(telemetry.NewRegistry(), nil))
	t.Cleanup(srv.Close)
	return srv
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func targetByName(v FleetView, name string) TargetStatus {
	for _, ts := range v.Targets {
		if ts.Name == name {
			return ts
		}
	}
	return TargetStatus{}
}

func TestAggregatorHealthTransitions(t *testing.T) {
	live := metricsServer(t)
	dying := httptest.NewServer(telemetry.Handler(telemetry.NewRegistry(), nil))

	interval := 30 * time.Millisecond
	a := New(Config{Interval: interval, Timeout: 200 * time.Millisecond},
		[]Target{{Name: "live", URL: live.URL}, {Name: "dying", URL: dying.URL}})
	a.Start()
	defer a.Close()

	waitFor(t, 3*time.Second, "both targets up", func() bool {
		v := a.View()
		return targetByName(v, "live").State == StateUp && targetByName(v, "dying").State == StateUp
	})

	// Kill one target: it must reach down within DownAfter=2 consecutive
	// failures — i.e. two scrape intervals — while the other target's
	// scrape counter keeps advancing (the fleet view never stalls on a
	// dead member).
	dying.Close()
	killedAt := time.Now()
	waitFor(t, 3*time.Second, "dying target down", func() bool {
		return targetByName(a.View(), "dying").State == StateDown
	})
	// Generous wall-clock bound: 2 intervals of failing attempts plus
	// client-side retry pauses and scheduling; the point is "promptly",
	// not "after the 8× backoff has stretched attempts out".
	if took := time.Since(killedAt); took > 20*interval {
		t.Fatalf("down transition took %v, want within ~2 scrape intervals (%v)", took, 2*interval)
	}

	before := targetByName(a.View(), "live").Scrapes
	waitFor(t, 3*time.Second, "live target still scraping", func() bool {
		v := a.View()
		return targetByName(v, "live").Scrapes > before && targetByName(v, "live").State == StateUp
	})

	v := a.View()
	if v.Rollup.TargetsUp != 1 || v.Rollup.TargetsDown != 1 {
		t.Fatalf("rollup: %d up / %d down, want 1/1", v.Rollup.TargetsUp, v.Rollup.TargetsDown)
	}
	var found bool
	for _, f := range v.Findings {
		if f.Kind == FindingTargetDown && f.Target == "dying" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no target-down finding for dying target: %+v", v.Findings)
	}
	if ts := targetByName(v, "dying"); ts.LastErr == "" {
		t.Fatal("down target should carry its last error")
	}
}

// A target that never answered is down after its first failed attempt —
// there is no last-known data to serve stale.
func TestAggregatorNeverUpGoesDown(t *testing.T) {
	a := New(Config{Interval: 20 * time.Millisecond, Timeout: 100 * time.Millisecond},
		[]Target{{Name: "ghost", URL: "http://127.0.0.1:1"}})
	a.Start()
	defer a.Close()
	waitFor(t, 3*time.Second, "ghost down", func() bool {
		return targetByName(a.View(), "ghost").State == StateDown
	})
}

// Backoff: a failing target's attempt cadence stretches toward
// maxBackoff intervals instead of hot-looping.
func TestAggregatorBackoff(t *testing.T) {
	interval := 20 * time.Millisecond
	a := New(Config{Interval: interval, Timeout: 50 * time.Millisecond},
		[]Target{{Name: "ghost", URL: "http://127.0.0.1:1"}})
	a.Start()
	defer a.Close()

	// After the failure streak builds, attempts are spaced at maxBackoff
	// intervals.
	waitFor(t, 3*time.Second, "failure streak", func() bool {
		return targetByName(a.View(), "ghost").ConsecFails >= 5
	})
	s0 := targetByName(a.View(), "ghost").Scrapes
	time.Sleep(10 * interval)
	s1 := targetByName(a.View(), "ghost").Scrapes
	// 10 intervals at maxBackoff=8×interval spacing allows ~1-2 attempts;
	// without backoff there would be ~10.
	if attempts := s1 - s0; attempts > 4 {
		t.Fatalf("%d attempts in 10 intervals against a dead target — backoff not applied", attempts)
	}
}

// ScrapeAll is the synchronous one-shot round behind `attestctl fleet
// -endpoints`: no Start, one parallel sweep, view ready after return.
func TestScrapeAllOneShot(t *testing.T) {
	live := metricsServer(t)
	a := New(Config{Timeout: 200 * time.Millisecond},
		[]Target{{Name: "live", URL: live.URL}, {Name: "ghost", URL: "http://127.0.0.1:1"}})
	a.ScrapeAll()
	v := a.View()
	if ts := targetByName(v, "live"); ts.State != StateUp || ts.Scrapes != 1 {
		t.Fatalf("live after one-shot: %+v", ts)
	}
	if ts := targetByName(v, "ghost"); ts.State != StateDown {
		t.Fatalf("ghost after one-shot: %+v, want down (never up + failed)", ts)
	}
}

// The targets file is re-read on mtime change: new targets join the
// scrape set, removed ones are dropped, file entries override static.
func TestAggregatorTargetsFileReload(t *testing.T) {
	live := metricsServer(t)
	second := metricsServer(t)

	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.targets")
	if err := os.WriteFile(path, []byte("one="+live.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := New(Config{Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, TargetsFile: path}, nil)
	a.Start()
	defer a.Close()
	waitFor(t, 3*time.Second, "initial target up", func() bool {
		return targetByName(a.View(), "one").State == StateUp
	})

	// Rewrite the file: add a target, drop the old one. The watcher polls
	// mtime; ensure it differs even on coarse-grained filesystems.
	time.Sleep(10 * time.Millisecond)
	if err := os.WriteFile(path, []byte("two="+second.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	waitFor(t, 5*time.Second, "reloaded target up", func() bool {
		v := a.View()
		return targetByName(v, "two").State == StateUp && targetByName(v, "one").Name == ""
	})
	if a.Reloads() == 0 {
		t.Fatal("reload counter not incremented")
	}
}
