package harness

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"pera/internal/auditlog"
	"pera/internal/freshness"
	"pera/internal/profiler"
	"pera/internal/recorder"
	"pera/internal/telemetry"
)

// End-to-end acceptance for the continuous profiling observatory
// (ISSUE 10): an armed UC1 throughput run must attribute the hot path's
// CPU to RATS stages via pprof labels, decodable offline by the
// zero-dependency reader; and a seeded verify-stage slowdown must page
// as a profile_regression through the audit ledger and leave an
// incident bundle carrying cpu.pprof and top_diff.json.

// e2eBurn keeps the goroutine CPU-bound for d; noinline so the leaf
// frame is attributable by name.
//
//go:noinline
func e2eBurn(d time.Duration) uint64 {
	var x uint64 = 6364136223846793005
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<12; i++ {
			x = x*2862933555777941757 + 3037000493
		}
	}
	return x
}

func TestProfilerE2EStageAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling e2e needs a real CPU window")
	}
	// Unique chains (Packets == Flows) with the memo off: every job
	// pays its own signature checks, so the verify stage stays
	// genuinely hot for the whole phase.
	const n = 1600
	p := profiler.New(profiler.Options{Service: "tp-e2e"})
	res, err := RunThroughput(ThroughputOptions{
		Workers: 2, Packets: n, Flows: n, Memo: false, Profiler: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass == 0 {
		t.Fatalf("throughput run passed nothing: %+v", res)
	}
	if telemetry.ProfilingArmed() {
		t.Fatal("labels left armed after the capture")
	}

	s := p.Summary(0)
	if s.Samples < 10 {
		t.Skipf("CPU sampler starved on this host: %d samples over %.3fs", s.Samples, s.TotalSeconds)
	}
	t.Logf("captured %.3fs CPU over %d samples, %.0f%% stage-labeled, hotspot %s (%.0f%%)",
		s.TotalSeconds, s.Samples, s.LabeledShare*100, s.Hotspot, s.HotspotShare*100)
	// The acceptance bar: >= 60% of the timed phase's CPU attributed to
	// labeled RATS stages.
	if s.LabeledShare < 0.60 {
		t.Fatalf("labeled share = %.0f%%, want >= 60%% (stages: %+v)", s.LabeledShare*100, s.Stages)
	}
	var verify float64
	for _, st := range s.Stages {
		if st.Stage == string(telemetry.StageVerify) {
			verify += st.Seconds
		}
	}
	if verify <= 0 {
		t.Fatalf("no verify-stage CPU attributed: %+v", s.Stages)
	}

	// Offline replay: the raw artifact re-decodes with the zero-dep
	// reader and yields the same attribution without the live profiler.
	raw, _, ok := p.Artifact("cpu")
	if !ok {
		t.Fatal("no cpu artifact retained")
	}
	prof, err := profiler.ParseProfile(raw)
	if err != nil {
		t.Fatalf("offline decode: %v", err)
	}
	vi := prof.ValueIndex("cpu")
	var total, labeled int64
	for i := range prof.Samples {
		v := prof.Samples[i].Values[vi]
		total += v
		if prof.Samples[i].Labels[telemetry.ProfStageKey] != "" {
			labeled += v
		}
	}
	if total == 0 {
		t.Fatal("offline decode found no CPU time")
	}
	if share := float64(labeled) / float64(total); share < 0.60 {
		t.Fatalf("offline labeled share = %.0f%%, want >= 60%%", share*100)
	}
}

func TestProfilerE2ERegressionLedgerAndBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling e2e needs real CPU windows")
	}
	dir := t.TempDir()
	bundleDir := filepath.Join(dir, "incidents")
	ledger := filepath.Join(dir, "trail.jsonl")
	w, err := auditlog.Create(ledger, auditlog.Options{KeyID: "prof-e2e"})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rec := recorder.New(recorder.Config{
		Service: "prof-e2e",
		Clock:   (&tickClock{}).Now,
		Bundle:  recorder.BundlerConfig{Dir: bundleDir, Debounce: 30 * time.Second},
	})
	rec.SetRegistry(reg)
	rec.SetLedger(w, ledger)

	p := profiler.New(profiler.Options{Service: "prof-e2e", Registry: reg})
	p.AddSink(freshness.NewAuditSink(w))
	p.AddSink(rec.Sink())
	rec.SetProfiler(p)

	// Baseline: CPU burned outside any stage region — verify share ~0.
	baselined := false
	for attempt := 0; attempt < 3 && !baselined; attempt++ {
		if err := p.CaptureWhile(func() { e2eBurn(300 * time.Millisecond) }); err != nil {
			t.Fatalf("baseline capture: %v", err)
		}
		if s := p.Summary(0); s.TotalSeconds >= 0.05 {
			baselined = true
		}
	}
	if !baselined {
		t.Skip("CPU sampler starved on this host")
	}
	p.SetBaseline()

	// The seeded slowdown: the same burn now inside the verify region at
	// the appraiser, so the verify stage's CPU share jumps from ~0 to
	// ~100% — far past the stage-delta threshold.
	region := telemetry.NewProfRegion(telemetry.StageVerify, "ap")
	for attempt := 0; attempt < 3 && p.Regressions() == 0; attempt++ {
		err := p.CaptureWhile(func() {
			entered := region.Enter()
			e2eBurn(300 * time.Millisecond)
			telemetry.ProfExit(entered)
		})
		if err != nil {
			t.Fatalf("regression capture: %v", err)
		}
	}
	if p.Regressions() == 0 {
		t.Skip("regression windows captured no samples on this host")
	}
	w.Close()

	// The finding reached the hash-chained ledger through the shared
	// freshness sink pipeline.
	if _, err := auditlog.VerifyFile(ledger, nil); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	full, err := auditlog.ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	regs := auditlog.Query{Event: string(auditlog.EventProfileRegression)}.Filter(full)
	if len(regs) == 0 {
		t.Fatal("ledger has no profile_regression record")
	}

	// ...and triggered an incident bundle carrying the profile evidence.
	infos := recorder.ListBundles(bundleDir)
	if len(infos) == 0 {
		t.Fatal("no incident bundle captured for the regression")
	}
	b, err := recorder.OpenBundle(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger.Kind != "profile" {
		t.Fatalf("bundle trigger kind = %q, want profile", b.Manifest.Trigger.Kind)
	}
	if len(b.Files["cpu.pprof"]) == 0 {
		t.Fatal("bundle is missing cpu.pprof")
	}
	if _, err := profiler.ParseProfile(b.Files["cpu.pprof"]); err != nil {
		t.Fatalf("bundled cpu.pprof does not decode: %v", err)
	}
	var diff profiler.TopDiff
	if err := json.Unmarshal(b.Files["top_diff.json"], &diff); err != nil {
		t.Fatalf("bundle top_diff.json: %v", err)
	}
	found := false
	for _, f := range diff.Findings {
		if f.Kind == "stage" && f.What == string(telemetry.StageVerify) {
			found = true
		}
	}
	if !found {
		t.Fatalf("top_diff.json findings name no verify-stage regression: %+v", diff.Findings)
	}
}
