// Benchmarks regenerating the paper's artifacts, one benchmark (family)
// per table/figure. Absolute numbers are simulator numbers; the shapes —
// signing dominating the pipeline, caching collapsing high-inertia
// evidence cost, sampling trading assurance for overhead, chained vs
// pointwise composition — are the reproduction targets (see
// EXPERIMENTS.md).
//
// Run: go test -bench=. -benchmem
package bench

import (
	"fmt"
	"testing"
	"time"

	"pera/internal/appraiser"
	"pera/internal/auditlog"
	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/fleetscope"
	"pera/internal/freshness"
	"pera/internal/harness"
	"pera/internal/nac"
	"pera/internal/observatory"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/profiler"
	"pera/internal/rats"
	"pera/internal/recorder"
	"pera/internal/rot"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// --- Table 1 ---

// BenchmarkTable1_AP1_Compile measures parsing + binding + compiling AP1
// against the standard 6-element path (the relying party's cost before
// sending attested traffic).
func BenchmarkTable1_AP1_Compile(b *testing.B) {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := usecases.CompileUC1Policy(tb, []byte("bench")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_AP1_EndToEnd measures a full AP1 round: attested packet
// across 3 PERA switches with chained evidence, appraised at the end.
func BenchmarkTable1_AP1_EndToEnd(b *testing.B) {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce := []byte(fmt.Sprintf("t1-%d", i))
		res, err := usecases.RunUC1Round(tb, nonce)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Certificate.Verdict {
			b.Fatal("verdict false")
		}
	}
}

// BenchmarkTable1_AP2_Compile measures AP2 compilation for a scanner.
func BenchmarkTable1_AP2_Compile(b *testing.B) {
	tb, err := usecases.NewTestbed(pera.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := usecases.CompileUC4Policy(tb, usecases.SwACL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_AP2_ScanPacket measures the scanner's per-packet cost
// when the C2 guard fires (attest packet + program, sign, emit).
func BenchmarkTable1_AP2_ScanPacket(b *testing.B) {
	tb, err := usecases.NewTestbed(pera.Config{})
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := usecases.CompileUC4Policy(tb, usecases.SwACL)
	if err != nil {
		b.Fatal(err)
	}
	if err := usecases.ArmScanner(tb, usecases.SwACL, compiled); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.SendPlain(true, 40000, usecases.C2Port, []byte("beacon")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_AP3_Compile measures AP3's backtracking binder over a
// 7-element path with a non-RA gap.
func BenchmarkTable1_AP3_Compile(b *testing.B) {
	pol, err := copland.ParsePolicy(nac.AP3)
	if err != nil {
		b.Fatal(err)
	}
	reg := nac.TestRegistry{
		"Peer1": {PlacePred: func(p string) bool { return p == "alice" }},
		"Peer2": {PlacePred: func(p string) bool { return p == "bob" }},
		"Q":     {PlacePred: func(p string) bool { return p == "swR" }},
	}
	path := []nac.PathHop{
		{Name: "alice", CanSign: true},
		{Name: "swF1", Attesting: true, CanSign: true},
		{Name: "swF2", Attesting: true, CanSign: true},
		{Name: "dumb1"}, {Name: "dumb2"},
		{Name: "swR", Attesting: true, CanSign: true},
		{Name: "bob", CanSign: true},
	}
	opts := nac.Options{Properties: map[string][]evidence.Detail{
		"F1": {evidence.DetailProgram}, "F2": {evidence.DetailProgram},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nac.Compile(pol, path, reg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1 ---

// BenchmarkFig1_AttestationRound measures one full Fig. 1 round:
// challenge → attest (hardware+program+tables, signed) → appraise →
// certificate.
func BenchmarkFig1_AttestationRound(b *testing.B) {
	sw, frame, err := harness.NewFig3Switch()
	if err != nil {
		b.Fatal(err)
	}
	_ = frame
	appr := appraiser.New("bench", []byte("fig1"))
	appr.RegisterKey(sw.Name(), sw.RoT().Public())
	gs, err := sw.Golden(evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range gs {
		appr.SetGolden(sw.Name(), g.Target, g.Detail, g.Value)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce := []byte(fmt.Sprintf("n-%d", i))
		ev, err := sw.Attest(nonce, evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
		if err != nil {
			b.Fatal(err)
		}
		cert, err := appr.Appraise(sw.Name(), ev, nonce)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.Verdict {
			b.Fatal(cert.Reason)
		}
	}
}

// --- Fig. 2 ---

// BenchmarkFig2_InBand measures one in-band attested flow across the
// testbed (evidence travels with the packet; one appraisal at the end).
func BenchmarkFig2_InBand(b *testing.B) {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := usecases.CompileUC1Policy(tb, []byte("fig2"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Client.Clear()
		if err := tb.SendAttested(compiled.Policy, true, 40000, 443, []byte("d")); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var wire uint64
	for _, sw := range tb.Switches {
		wire += sw.Stats().InBandBytes
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wireB/flow")
}

// BenchmarkFig2_OutOfBand measures one out-of-band flow: data travels
// clean; each switch emits evidence to the appraiser separately.
func BenchmarkFig2_OutOfBand(b *testing.B) {
	tb, err := usecases.NewTestbed(pera.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, sw := range tb.Switches {
		cfg := sw.Config()
		cfg.Standing = []pera.Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
			SignEvidence: true,
			Appraiser:    usecases.AppraiserName,
		}}
		sw.SetConfig(cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.SendPlain(true, 40000, 443, []byte("d")); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(tb.OOB()))/float64(b.N), "oobMsgs/flow")
}

// --- Fig. 3 ---

// BenchmarkFig3_PipelineStages times each cumulative stage configuration
// of the Fig. 3 switch: the gap between successive sub-benchmarks is the
// cost of the added evidence stage.
func BenchmarkFig3_PipelineStages(b *testing.B) {
	for _, stage := range harness.Fig3Stages {
		b.Run(stage, func(b *testing.B) {
			sw, frame, err := harness.NewFig3Switch()
			if err != nil {
				b.Fatal(err)
			}
			var inband []byte
			if stage == "+inband-header" {
				inband = harness.Fig3InbandFrame(sw, frame)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := harness.RunFig3Stage(stage, sw, frame, inband); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 4 ---

// BenchmarkFig4_DesignSpace sweeps Detail × Sampling at chained
// composition, reporting per-packet switch cost plus the evidence volume
// and cache effectiveness at each point.
func BenchmarkFig4_DesignSpace(b *testing.B) {
	for _, detail := range evidence.Details() {
		for _, sampling := range evidence.Samplings() {
			name := fmt.Sprintf("%s/%s", detail, sampling)
			b.Run(name, func(b *testing.B) {
				row, err := harness.RunFig4Point(harness.Fig4Config{
					Detail: detail, Sampling: sampling, Composition: evidence.Chained,
				}, b.N, 50)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.Signatures)/float64(b.N), "sigs/pkt")
				b.ReportMetric(float64(row.EvidenceBytes)/float64(b.N), "evB/pkt")
				b.ReportMetric(row.CacheHitRate, "cacheHit")
			})
		}
	}
}

// BenchmarkFig4_Composition contrasts chained and pointwise evidence over
// increasing path lengths (the Fig. 4 composition axis).
func BenchmarkFig4_Composition(b *testing.B) {
	for _, comp := range evidence.Compositions() {
		for _, hops := range []int{1, 3, 5} {
			name := fmt.Sprintf("%s/%dhops", comp, hops)
			b.Run(name, func(b *testing.B) {
				var last *harness.CompositionRow
				for i := 0; i < b.N; i++ {
					row, err := harness.RunComposition(comp, hops)
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(float64(last.FinalEvBytes), "finalEvB")
				b.ReportMetric(float64(last.OOBMessages), "oobMsgs")
			})
		}
	}
}

// --- Throughput: the concurrent appraisal pipeline ---

// benchThroughputPool times pool appraisal of a pre-generated UC1 corpus
// at one width, reporting pkts/sec. Corpus generation and pool setup stay
// outside the timer.
func benchThroughputPool(b *testing.B, workers int, memo bool) {
	const packets, flows = 256, 16
	jobs, tb, _, err := harness.ThroughputCorpus(packets, flows)
	if err != nil {
		b.Fatal(err)
	}
	a := tb.Appraiser
	if memo {
		a.EnableMemo(0)
	}
	pool := appraiser.NewPool(a, workers)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range pool.AppraiseAll(jobs) {
			if r.Err != nil || !r.Certificate.Verdict {
				b.Fatalf("job %d: err=%v verdict=%v", r.Index, r.Err, r.Certificate != nil && r.Certificate.Verdict)
			}
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*packets)/s, "pkts/sec")
	}
	if memo {
		b.ReportMetric(a.MemoStats().HitRate(), "memoHit")
	}
}

// BenchmarkThroughput_Workers sweeps the appraisal pool width with
// memoization off: pure ed25519 verification fanned across workers.
// Wall-clock scaling tracks GOMAXPROCS; at GOMAXPROCS=1 the sweep is
// flat by construction (see README "Performance").
func BenchmarkThroughput_Workers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dworkers", w), func(b *testing.B) {
			benchThroughputPool(b, w, false)
		})
	}
}

// BenchmarkThroughput_WorkersMemo repeats the sweep with the verification
// memo enabled: re-presented per-flow chains collapse to hash lookups,
// which lifts throughput at every width independent of core count.
func BenchmarkThroughput_WorkersMemo(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dworkers", w), func(b *testing.B) {
			benchThroughputPool(b, w, true)
		})
	}
}

// BenchmarkThroughput_EndToEnd measures harness.RunThroughput whole —
// corpus generation on the testbed plus pooled appraisal — at the default
// production configuration (memo on, GOMAXPROCS workers).
func BenchmarkThroughput_EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunThroughput(0, 128, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.Pass != 128 {
			b.Fatalf("pass=%d, want 128", res.Pass)
		}
	}
}

// BenchmarkThroughput_Audit measures what the audit ledger costs the
// end-to-end throughput run: "off" is BenchmarkThroughput_EndToEnd's
// configuration, "on" additionally records every RATS lifecycle event of
// the run onto a hash-chained ledger file (async writer, create + seal
// inside the timer — the whole real overhead). The delta between the
// two is the audit-overhead entry in BENCH_throughput.json.
func BenchmarkThroughput_Audit(b *testing.B) {
	run := func(b *testing.B, audited bool) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true}
			var w *auditlog.Writer
			if audited {
				var err error
				w, err = auditlog.Create(fmt.Sprintf("%s/trail-%d.jsonl", dir, i), auditlog.Options{})
				if err != nil {
					b.Fatal(err)
				}
				o.Audit = w
			}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			w.Close()
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
		}
		if audited && b.N > 0 {
			b.ReportMetric(float64(128), "pkts/run")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkThroughput_Observe measures what the observatory plane costs
// the end-to-end throughput run: "off" is BenchmarkThroughput_EndToEnd's
// configuration; "sample1" additionally puts a hop span on every flow at
// every switch and attaches a collector that ingests every span trail
// and appraisal verdict; "sample8" spans 1-in-8 flows — the Fig. 4
// Inertia knob that amortizes the span cost (see BENCH_throughput.json
// observe_overhead).
func BenchmarkThroughput_Observe(b *testing.B) {
	run := func(b *testing.B, sampleEvery uint32, observed bool) {
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true}
			if observed {
				o.Spans = pera.SpanConfig{Enabled: true, SampleEvery: sampleEvery}
				o.Collector = observatory.New("bench", observatory.Config{})
			}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0, false) })
	b.Run("sample1", func(b *testing.B) { run(b, 1, true) })
	b.Run("sample8", func(b *testing.B) { run(b, 8, true) })
}

// BenchmarkThroughput_Trace measures what distributed tracing costs the
// end-to-end throughput run: "off" is BenchmarkThroughput_EndToEnd's
// configuration (tracer nil — the zero-alloc fast path); "sample8"
// attaches a flow tracer at the production 1-in-8 sampling rate to every
// switch and the appraisal pool; "sample1" traces every flow — the
// worst case, every packet paying span assembly and exemplar stores
// (see BENCH_throughput.json trace_overhead).
func BenchmarkThroughput_Trace(b *testing.B) {
	run := func(b *testing.B, sampleEvery uint32) {
		// One long-lived tracer, as in production: the ring buffer is
		// allocated once, not per run, so the timer sees the per-span
		// recording cost rather than arena setup.
		var tr *telemetry.FlowTracer
		if sampleEvery > 0 {
			tr = telemetry.NewFlowTracer(4096)
			tr.SetSampleEvery(sampleEvery)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true, Tracer: tr}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
		}
		b.StopTimer()
		if sampleEvery == 1 && tr.Recorded() == 0 {
			b.Fatal("tracer recorded nothing at 1-in-1")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("sample8", func(b *testing.B) { run(b, 8) })
	b.Run("sample1", func(b *testing.B) { run(b, 1) })
}

// BenchmarkThroughput_SLO measures what the trust-decay watchdog costs
// on top of the full observatory configuration: "off" is the end_to_end
// baseline; "watchdog" additionally wires a freshness watchdog into all
// three feeds (cache events, span trails via the collector's path sink,
// appraisal verdicts with a tee to the collector), so every packet pays
// the coverage bookkeeping and both alert-rule evaluations (see
// BENCH_throughput.json slo_overhead).
func BenchmarkThroughput_SLO(b *testing.B) {
	run := func(b *testing.B, watched bool) {
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true}
			if watched {
				o.Spans = pera.SpanConfig{Enabled: true}
				o.Collector = observatory.New("bench", observatory.Config{})
				o.Watchdog = freshness.New("bench", freshness.Config{})
			}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
			if watched && o.Watchdog.Coverage().Evaluations == 0 {
				b.Fatal("watchdog never evaluated")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("watchdog", func(b *testing.B) { run(b, true) })
}

// BenchmarkThroughput_Recorder measures what the flight recorder costs
// the end-to-end throughput run: "off" is BenchmarkThroughput_EndToEnd's
// configuration; "registry" additionally has every pipeline component
// report into a telemetry registry (the recorder's scrape source); "on"
// adds the recorder itself — a history-store scrape plus a full detector
// evaluation per 128-packet run, a far denser cadence than the
// production one-scrape-per-second ticker (see BENCH_throughput.json
// recorder_overhead).
func BenchmarkThroughput_Recorder(b *testing.B) {
	run := func(b *testing.B, instrumented, recorded bool) {
		// One long-lived registry and recorder, as in production: the
		// rings are allocated once, and scrapes b.N runs long pay the
		// steady-state cost, not arena setup.
		var reg *telemetry.Registry
		var rec *recorder.Recorder
		if instrumented {
			reg = telemetry.NewRegistry()
		}
		if recorded {
			rec = recorder.New(recorder.Config{
				Service: "bench",
				Bundle:  recorder.BundlerConfig{Dir: b.TempDir()},
			})
			rec.SetRegistry(reg)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true,
				Registry: reg, Recorder: rec}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
		}
		b.StopTimer()
		if recorded {
			scrapes, _, _, series, _ := rec.Store().Stats()
			if scrapes == 0 || series == 0 {
				b.Fatalf("recorder idle during the run (scrapes=%d series=%d)", scrapes, series)
			}
			// Wall-clock latency jitter across hundreds of iterations can
			// legitimately page once; report rather than fail, the debounce
			// keeps any capture cost amortized.
			b.ReportMetric(float64(rec.Anomalies()), "anomalies")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false, false) })
	b.Run("registry", func(b *testing.B) { run(b, true, false) })
	b.Run("on", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkThroughput_FleetScrape measures what being scraped by the
// fleet control plane costs the scraped process: "off" is the
// registry-instrumented end-to-end run (BenchmarkThroughput_Recorder's
// "registry" configuration); "scraped" additionally serves that
// registry over a real HTTP socket and points a fleetscope aggregator
// at it on a 10ms cadence — 100x denser than the production 1s
// interval, so the per-scrape snapshot + JSON encode cost lands inside
// the timed window instead of amortizing away; "scraped1ms" pushes the
// cadence to 1ms, past any sane deployment, to show where the target's
// serving cost stops hiding in the noise (see BENCH_throughput.json
// fleet_overhead).
func BenchmarkThroughput_FleetScrape(b *testing.B) {
	run := func(b *testing.B, interval time.Duration) {
		reg := telemetry.NewRegistry()
		if interval > 0 {
			srv, err := telemetry.Serve("127.0.0.1:0", reg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			agg := fleetscope.New(fleetscope.Config{Interval: interval},
				[]fleetscope.Target{{Name: "bench", URL: "http://" + srv.Addr()}})
			agg.Start()
			defer agg.Close()
			defer func() {
				b.StopTimer()
				// Prove the scraper was live; a short-benchtime run can end
				// before the first tick lands, so give it a moment.
				deadline := time.Now().Add(time.Second)
				for {
					var scrapes uint64
					for _, t := range agg.View().Targets {
						scrapes = t.Scrapes
					}
					if scrapes > 0 {
						return
					}
					if time.Now().After(deadline) {
						b.Fatal("aggregator never scraped during the run")
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true, Registry: reg}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("scraped", func(b *testing.B) { run(b, 10*time.Millisecond) })
	b.Run("scraped1ms", func(b *testing.B) { run(b, time.Millisecond) })
}

// BenchmarkThroughput_Profile measures what the always-on continuous
// profiler costs the end-to-end throughput run: "off" is
// BenchmarkThroughput_EndToEnd's configuration; "on" runs the same loop
// under a live profiler Start() loop — back-to-back CPU capture windows
// with stage labels armed, so every run pays the 100Hz SIGPROF sampling
// tax, the per-region label push/pop, and its share of the background
// window ingest (decode + attribution), exactly as a -profile daemon
// does. Each iteration is NOT wrapped in its own capture: pprof's
// start/stop flush costs a fixed ~200ms, which production amortizes
// across a whole window and a per-iteration capture would bill to every
// 3ms run (see BENCH_throughput.json profiler_overhead).
func BenchmarkThroughput_Profile(b *testing.B) {
	run := func(b *testing.B, profiled bool) {
		var p *profiler.Profiler
		if profiled {
			p = profiler.New(profiler.Options{Service: "bench", Window: 250 * time.Millisecond})
			p.Start()
			// Let the first window's StartCPUProfile land so the timed
			// loop runs under an active capture from the first iteration.
			time.Sleep(5 * time.Millisecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := harness.ThroughputOptions{Workers: 0, Packets: 128, Flows: 8, Memo: true}
			res, err := harness.RunThroughputOpts(o)
			if err != nil {
				b.Fatal(err)
			}
			if res.Pass != 128 {
				b.Fatalf("pass=%d, want 128", res.Pass)
			}
		}
		b.StopTimer()
		if profiled {
			// Close ingests the in-flight window, so a short run still
			// proves the profiler was live.
			p.Close()
			if p.Captures() == 0 {
				b.Fatal("profiler captured nothing during the run")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkVerifyMemo isolates the memo win on a single 3-hop chain:
// "cold" pays ed25519 every time (unique memo per iteration would defeat
// the point, so it uses no memo); "warm" hits the memo after the first
// verification.
func BenchmarkVerifyMemo(b *testing.B) {
	r := rot.NewDeterministic("bench", []byte("memo"))
	ev := evidence.Nonce([]byte("n"))
	for i := 0; i < 3; i++ {
		m := evidence.Measurement("sw", "prog", "sw", evidence.DetailProgram, rot.Sum([]byte{byte(i)}), nil)
		ev = evidence.Sign(r, evidence.Seq(ev, m))
	}
	keys := evidence.KeyMap{"bench": r.Public()}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evidence.VerifySignaturesMemo(ev, keys, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		memo := evidence.NewVerifyMemo(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := evidence.VerifySignaturesMemo(ev, keys, memo); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Supporting micro-benchmarks: the primitives the stages are built
// from, for the ablation discussion in EXPERIMENTS.md. ---

// BenchmarkRoTSign isolates the Ed25519 signing cost that dominates the
// Fig. 3 "+sign" stage.
func BenchmarkRoTSign(b *testing.B) {
	r := rot.NewDeterministic("bench", []byte("sign"))
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sign(msg)
	}
}

// BenchmarkRoTQuote measures hardware-quote generation.
func BenchmarkRoTQuote(b *testing.B) {
	r := rot.NewDeterministic("bench", []byte("quote"))
	r.ExtendData(0, []byte("fw"), "fw")
	nonce := []byte("n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Quote(nonce, 0, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvidenceEncode measures the canonical codec on a 3-hop chain.
func BenchmarkEvidenceEncode(b *testing.B) {
	r := rot.NewDeterministic("bench", []byte("enc"))
	ev := evidence.Nonce([]byte("n"))
	for i := 0; i < 3; i++ {
		m := evidence.Measurement("sw", "prog", "sw", evidence.DetailProgram, rot.Sum([]byte{byte(i)}), nil)
		ev = evidence.Sign(r, evidence.Seq(ev, m))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evidence.Encode(ev)
	}
}

// BenchmarkEvidenceVerifyChain measures appraiser-side verification of the
// same 3-hop chain.
func BenchmarkEvidenceVerifyChain(b *testing.B) {
	r := rot.NewDeterministic("bench", []byte("ver"))
	ev := evidence.Nonce([]byte("n"))
	for i := 0; i < 3; i++ {
		m := evidence.Measurement("sw", "prog", "sw", evidence.DetailProgram, rot.Sum([]byte{byte(i)}), nil)
		ev = evidence.Sign(r, evidence.Seq(ev, m))
	}
	keys := evidence.KeyMap{"bench": r.Public()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evidence.VerifySignatures(ev, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderPushPop measures the in-band header codec (Fig. 3 cases
// A/D) in isolation.
func BenchmarkHeaderPushPop(b *testing.B) {
	pol := &pera.Policy{ID: 1, Nonce: []byte("n"), Obls: []pera.Obligation{{
		Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true,
	}}}
	inner := make([]byte, 512)
	wire := pera.WrapFrame(pol, inner)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr, rest, err := pera.Pop(wire)
		if err != nil {
			b.Fatal(err)
		}
		_ = pera.Push(hdr, rest)
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblation_Cache contrasts the per-packet attestation cost with
// the inertia cache enabled and disabled (same per-packet sampling,
// program-detail claims): the cache converts a hash-of-everything per
// packet into a map lookup.
func BenchmarkAblation_Cache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "off"
		if cached {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cache *evidence.Cache
			if cached {
				cache = evidence.NewCache()
			}
			sw, frame, err := harness.NewFig3Switch()
			if err != nil {
				b.Fatal(err)
			}
			// Populate the forwarding table so the tables digest (what
			// the obligation attests) costs something worth caching.
			for v := uint64(0); v < 512; v++ {
				if err := sw.Instance().InstallEntry("ipv4_fwd", p4ir.Entry{
					Matches: []p4ir.KeyMatch{{Value: 1000 + v}},
					Action:  "fwd", Params: map[string]uint64{"port": v % 8},
				}); err != nil {
					b.Fatal(err)
				}
			}
			sw.SetConfig(pera.Config{
				Cache: cache,
				Standing: []pera.Obligation{{
					Claims:       []evidence.Detail{evidence.DetailTables},
					SignEvidence: true,
				}},
			})
			sw.SetSink(func(string, string, *evidence.Evidence) {})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Receive(1, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_HashBeforeSign measures the # -> ! chain vs signing
// the raw evidence: hashing first shrinks what the signature covers,
// which matters when evidence carries large claims.
func BenchmarkAblation_HashBeforeSign(b *testing.B) {
	r := rot.NewDeterministic("bench", []byte("ablate"))
	big := evidence.Measurement("sw", "prog", "sw", evidence.DetailPackets,
		rot.Sum([]byte("x")), make([]byte, 4096))
	b.Run("sign-raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evidence.Sign(r, big)
		}
	})
	b.Run("hash-then-sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			evidence.Sign(r, evidence.Hash(big))
		}
	})
}

// BenchmarkAblation_SamplerModes isolates the sampler decision cost.
func BenchmarkAblation_SamplerModes(b *testing.B) {
	for _, mode := range evidence.Samplings() {
		b.Run(mode.String(), func(b *testing.B) {
			s := evidence.NewSampler(evidence.SamplerConfig{Mode: mode})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(uint64(i % 64))
			}
		})
	}
}

// BenchmarkAblation_PolicyCompile measures the nac compiler against
// growing path lengths (the binder is a backtracking matcher; paths in
// deployments are short, but the curve matters).
func BenchmarkAblation_PolicyCompile(b *testing.B) {
	pol, err := copland.ParsePolicy(nac.AP1)
	if err != nil {
		b.Fatal(err)
	}
	reg := nac.TestRegistry{
		"Khop":    {PlacePred: func(string) bool { return true }},
		"Kclient": {PlacePred: func(string) bool { return true }},
	}
	opts := nac.Options{Properties: map[string][]evidence.Detail{"X": {evidence.DetailProgram}}}
	for _, hops := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("%dhops", hops), func(b *testing.B) {
			path := []nac.PathHop{{Name: "src", CanSign: true}}
			for i := 0; i < hops; i++ {
				path = append(path, nac.PathHop{Name: fmt.Sprintf("sw%d", i), Attesting: true, CanSign: true})
			}
			path = append(path, nac.PathHop{Name: "dst", CanSign: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nac.Compile(pol, path, reg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SignerOffload contrasts the Sign stage executed on
// the local RoT with the disaggregated variant (§5.2's remotely-invoked
// primitive) over an in-memory transport: the offload round trip is the
// price of moving crypto off the ASIC.
func BenchmarkAblation_SignerOffload(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		sw, _, err := harness.NewFig3Switch()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sw.Attest(nil, evidence.DetailProgram); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("offloaded", func(b *testing.B) {
		sw, _, err := harness.NewFig3Switch()
		if err != nil {
			b.Fatal(err)
		}
		svc := pera.NewSignerService()
		svc.Host(sw.RoT())
		cc, sc := rats.Pipe()
		defer cc.Close()
		defer sc.Close()
		go rats.Serve(sc, svc.Handler())
		sw.SetSigner(pera.NewRemoteSigner(sw.Name(), cc))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sw.Attest(nil, evidence.DetailProgram); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_VerifyStage measures the per-frame cost the Verify
// half of the Sign/Verify stage adds on a transit switch.
func BenchmarkAblation_VerifyStage(b *testing.B) {
	up, frame, err := harness.NewFig3Switch()
	if err != nil {
		b.Fatal(err)
	}
	up.SetConfig(pera.Config{InBand: true, Composition: evidence.Chained})
	pol := &pera.Policy{Obls: []pera.Obligation{{
		Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true,
	}}}
	outs, err := up.Receive(1, pera.WrapFrame(pol, frame))
	if err != nil || len(outs) != 1 {
		b.Fatalf("upstream: %v %v", outs, err)
	}
	wire := outs[0].Frame
	keys := evidence.KeyMap{up.Name(): up.RoT().Public()}
	for _, verify := range []bool{false, true} {
		name := "off"
		if verify {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			down, _, err := harness.NewFig3Switch()
			if err != nil {
				b.Fatal(err)
			}
			cfg := pera.Config{InBand: true, Composition: evidence.Chained}
			if verify {
				cfg.VerifyIncoming = keys
			}
			down.SetConfig(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := down.Receive(1, wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
