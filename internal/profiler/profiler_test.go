package profiler

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pera/internal/freshness"
	"pera/internal/telemetry"
)

// testSink records dispatched events.
type testSink struct{ events []freshness.Event }

func (s *testSink) Emit(e freshness.Event) { s.events = append(s.events, e) }

func TestCaptureWhileAttributesStages(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Options{Service: "test", Registry: reg})
	region := telemetry.NewProfRegion(telemetry.StageVerify, "sw1")

	var sum Summary
	for attempt := 0; attempt < 3; attempt++ {
		if err := p.CaptureWhile(func() {
			defer telemetry.ProfExit(region.Enter())
			spin(300 * time.Millisecond)
		}); err != nil {
			t.Fatalf("CaptureWhile: %v", err)
		}
		sum = p.Summary(0)
		if sum.Samples > 0 {
			break
		}
	}
	if sum.Samples == 0 {
		t.Skip("CPU sampler collected no samples (starved host)")
	}
	if telemetry.ProfilingArmed() {
		t.Fatalf("labels still armed after CaptureWhile on an unstarted profiler")
	}
	if sum.TotalSeconds <= 0 {
		t.Fatalf("TotalSeconds = %v, want > 0", sum.TotalSeconds)
	}
	// The capture is one busy spin inside the verify region: nearly all
	// samples must carry the stage label.
	if sum.LabeledShare < 0.5 {
		t.Fatalf("LabeledShare = %.2f, want >= 0.5 (stages %+v)", sum.LabeledShare, sum.Stages)
	}
	found := false
	for _, sc := range sum.Stages {
		if sc.Stage == "verify" && sc.Place == "sw1" && sc.Seconds > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no (verify, sw1) stage row in %+v", sum.Stages)
	}
	if sum.Hotspot == "" || sum.Hotspot == "?" {
		t.Fatalf("hotspot = %q, want a named function", sum.Hotspot)
	}

	// Raw artifacts: the CPU window plus the runtime snapshot kinds.
	for _, kind := range []string{"cpu", "heap", "goroutine"} {
		if data, ts, ok := p.Artifact(kind); !ok || len(data) == 0 || ts == 0 {
			t.Fatalf("Artifact(%q) missing after capture", kind)
		}
	}
	// The artifact summarized offline gives the live window's tables.
	data, _, _ := p.Artifact("cpu")
	off, err := Summarize(data)
	if err != nil {
		t.Fatalf("summarize cpu artifact: %v", err)
	}
	if !reflect.DeepEqual(off.Stages, sum.Stages) || !reflect.DeepEqual(off.Top, sum.Top) {
		t.Fatalf("offline summary differs from live:\nstages %+v\nlive   %+v\ntop  %+v\nlive %+v",
			off.Stages, sum.Stages, off.Top, sum.Top)
	}

	// The registry carries the profiler series, including the lazily
	// registered stage counter.
	snap := reg.Snapshot()
	var sawCaptures, sawStage bool
	for _, m := range snap.Metrics {
		switch m.Name {
		case "pera_profile_captures_total":
			sawCaptures = m.Value > 0
		case "pera_profile_stage_cpu_seconds":
			for _, l := range m.Labels {
				if l.Value == "verify" {
					sawStage = m.Value > 0
				}
			}
		}
	}
	if !sawCaptures || !sawStage {
		t.Fatalf("registry missing profiler series: captures=%v stage=%v", sawCaptures, sawStage)
	}
}

func TestCaptureWhileNilProfilerRunsFn(t *testing.T) {
	var p *Profiler
	ran := false
	if err := p.CaptureWhile(func() { ran = true }); err != nil || !ran {
		t.Fatalf("nil CaptureWhile: ran=%v err=%v", ran, err)
	}
}

// mkWindow builds a synthetic decoded window for diff-engine tests.
func mkWindow(tsNS int64, total float64, stages map[stageKey]float64, funcs map[string]float64) window {
	w := window{tsNS: tsNS, durNS: int64(time.Second), total: total, samples: 100,
		stages: stages, funcs: funcs}
	for _, v := range stages {
		w.labeled += v
	}
	return w
}

func TestDiffWindowsFindsStageRegression(t *testing.T) {
	base := mkWindow(1, 1.0,
		map[stageKey]float64{{"verify", "ap"}: 0.2, {"sign", "sw1"}: 0.3},
		map[string]float64{"crypto/ed25519.Verify": 0.2})
	cur := mkWindow(2, 1.0,
		map[stageKey]float64{{"verify", "ap"}: 0.6, {"sign", "sw1"}: 0.1},
		map[string]float64{"crypto/ed25519.Verify": 0.6})

	d := diffWindows(&base, &cur)
	if len(d.Findings) == 0 {
		t.Fatalf("no findings for a 20%%→60%% stage jump")
	}
	var stageHit, funcHit bool
	for _, f := range d.Findings {
		if f.Kind == "stage" && f.What == "verify" && f.Place == "ap" {
			stageHit = true
			if f.Delta < 0.39 || f.Delta > 0.41 {
				t.Fatalf("verify delta = %v, want ~0.40", f.Delta)
			}
			if !strings.Contains(f.Reason, "verify") || !strings.Contains(f.Reason, "ap") {
				t.Fatalf("reason %q missing stage/place", f.Reason)
			}
		}
		if f.Kind == "function" && f.What == "crypto/ed25519.Verify" {
			funcHit = true
		}
	}
	if !stageHit || !funcHit {
		t.Fatalf("findings %+v missing stage/function regression", d.Findings)
	}
	// The improved sign stage must not be a finding.
	for _, f := range d.Findings {
		if f.What == "sign" {
			t.Fatalf("improved stage reported as regression: %+v", f)
		}
	}
}

func TestDiffWindowsIgnoresIdle(t *testing.T) {
	base := mkWindow(1, 0.001, map[stageKey]float64{{"verify", "ap"}: 0.0002}, nil)
	cur := mkWindow(2, 0.001, map[stageKey]float64{{"verify", "ap"}: 0.0009}, nil)
	d := diffWindows(&base, &cur)
	if len(d.Findings) != 0 {
		t.Fatalf("near-idle windows produced findings: %+v", d.Findings)
	}
}

func TestEvaluateLatchesFindings(t *testing.T) {
	p := New(Options{Service: "test"})
	sink := &testSink{}
	p.AddSink(sink)

	base := mkWindow(1, 1.0, map[stageKey]float64{{"verify", "ap"}: 0.2}, nil)
	hot := mkWindow(2, 1.0, map[stageKey]float64{{"verify", "ap"}: 0.6}, nil)
	cool := mkWindow(3, 1.0, map[stageKey]float64{{"verify", "ap"}: 0.2}, nil)

	p.evaluate(&base, &hot)
	if len(sink.events) != 1 {
		t.Fatalf("first breach dispatched %d events, want 1", len(sink.events))
	}
	e := sink.events[0]
	if e.Kind != freshness.KindProfile {
		t.Fatalf("event kind = %q, want %q", e.Kind, freshness.KindProfile)
	}
	if !strings.HasPrefix(e.Alert.Rule, "profile_regression:stage:verify") {
		t.Fatalf("rule = %q", e.Alert.Rule)
	}
	if e.Alert.Place != "ap" {
		t.Fatalf("place = %q, want ap", e.Alert.Place)
	}

	// Still breaching: latched, no refire.
	p.evaluate(&base, &hot)
	if len(sink.events) != 1 {
		t.Fatalf("latched breach refired: %d events", len(sink.events))
	}
	// Recovered: latch clears...
	p.evaluate(&base, &cool)
	if len(sink.events) != 1 {
		t.Fatalf("recovery dispatched an event: %d", len(sink.events))
	}
	// ...so the next breach fires again.
	p.evaluate(&base, &hot)
	if len(sink.events) != 2 {
		t.Fatalf("re-breach after recovery dispatched %d events, want 2", len(sink.events))
	}
	if p.Regressions() != 2 {
		t.Fatalf("Regressions() = %d, want 2", p.Regressions())
	}
}

func TestSetBaselineAndSummaryDiff(t *testing.T) {
	p := New(Options{Service: "test"})
	w1 := mkWindow(1, 1.0, map[stageKey]float64{{"verify", "ap"}: 0.2}, map[string]float64{"f": 0.2})
	p.mu.Lock()
	p.windows = append(p.windows, w1)
	p.mu.Unlock()
	p.SetBaseline()

	w2 := mkWindow(2, 1.0, map[stageKey]float64{{"verify", "ap"}: 0.7}, map[string]float64{"f": 0.7})
	p.mu.Lock()
	p.windows = append(p.windows, w2)
	p.mu.Unlock()

	sum := p.Summary(0)
	if !sum.Baseline || sum.Diff == nil {
		t.Fatalf("summary missing baseline diff: %+v", sum)
	}
	if len(sum.Diff.Findings) == 0 {
		t.Fatalf("diff vs baseline found nothing for a 20%%→70%% jump")
	}
	if b := p.TopDiffJSON(); b == nil || !strings.Contains(string(b), "verify") {
		t.Fatalf("TopDiffJSON missing the regressed stage: %s", b)
	}
}

func TestMergeWindowsAndLookback(t *testing.T) {
	now := time.Now()
	p := New(Options{Service: "test", Clock: func() time.Time { return now }})
	old := mkWindow(now.Add(-time.Hour).UnixNano(), 1.0, map[stageKey]float64{{"sign", "sw1"}: 0.5}, nil)
	recent := mkWindow(now.Add(-time.Second).UnixNano(), 2.0, map[stageKey]float64{{"verify", "ap"}: 1.0}, nil)
	p.mu.Lock()
	p.windows = append(p.windows, old, recent)
	p.mu.Unlock()

	// Lookback of a minute covers only the recent window.
	sum := p.Summary(time.Minute)
	if sum.TotalSeconds != 2.0 {
		t.Fatalf("lookback sum total = %v, want 2.0", sum.TotalSeconds)
	}
	// A day covers both.
	sum = p.Summary(24 * time.Hour)
	if sum.TotalSeconds != 3.0 {
		t.Fatalf("full sum total = %v, want 3.0", sum.TotalSeconds)
	}
	if len(sum.Stages) != 2 {
		t.Fatalf("merged stages = %+v, want 2 rows", sum.Stages)
	}
}

func TestStartCloseLifecycle(t *testing.T) {
	p := New(Options{Service: "test", Window: 50 * time.Millisecond})
	p.Start()
	if !telemetry.ProfilingArmed() {
		t.Fatalf("Start did not arm profiling labels")
	}
	spin(120 * time.Millisecond) // let the loop complete at least one window
	p.Close()
	if telemetry.ProfilingArmed() {
		t.Fatalf("Close left profiling labels armed")
	}
	if p.Captures() == 0 {
		t.Fatalf("capture loop ingested no windows")
	}
	p.Close() // idempotent
}
