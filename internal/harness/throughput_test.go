package harness

import (
	"runtime"
	"testing"

	"pera/internal/telemetry"
)

// TestRunThroughput checks the end-to-end harness: every walked packet
// must appraise to a passing verdict, and the re-presented per-flow
// chains must produce a substantial memo hit rate (the acceptance
// criterion for the verification memo).
func TestRunThroughput(t *testing.T) {
	const packets, flows = 60, 3
	res, err := RunThroughput(ThroughputOptions{Workers: 4, Packets: packets, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass != packets || res.Fail != 0 || res.Errors != 0 {
		t.Fatalf("verdicts: pass=%d fail=%d errors=%d, want %d/0/0", res.Pass, res.Fail, res.Errors, packets)
	}
	if res.PacketsPerSec <= 0 {
		t.Fatalf("packets/sec not measured: %+v", res)
	}
	if res.MemoHits == 0 {
		t.Fatalf("memo recorded no hits over %d packets of %d flows: %+v", packets, flows, res)
	}
	if res.MemoHitRate < 0.5 {
		t.Fatalf("memo hit rate %.2f, want >= 0.5 (each flow chain re-presented %d times)", res.MemoHitRate, packets/flows)
	}
}

// TestThroughputMemoDifferential ensures the memo changes cost, never
// verdicts: the pooled run, its memo answering every re-presented chain,
// must agree with a reference appraisal of an identical corpus that
// empties the memo before every job, so that each of its verdicts comes
// from full verification alone.
func TestThroughputMemoDifferential(t *testing.T) {
	const packets, flows = 40, 2
	on, err := RunThroughput(ThroughputOptions{Workers: 2, Packets: packets, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	jobs, tb, _, err := ThroughputCorpus(ThroughputOptions{Packets: packets, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	var off ThroughputResult
	a := tb.Appraiser
	for _, j := range jobs {
		a.EnableMemo(0)
		cert, err := a.Appraise(j.Subject, j.Evidence, j.Nonce)
		switch {
		case err != nil:
			off.Errors++
		case cert.Verdict:
			off.Pass++
		default:
			off.Fail++
		}
		// An emptied memo answers nothing: every signature and quote
		// it was asked about was verified in full.
		if st := a.MemoStats(); st.Misses == 0 || st.Entries != int(st.Misses) {
			t.Fatalf("reference appraisal on an emptied memo: %+v", st)
		}
	}
	if on.Pass != off.Pass || on.Fail != off.Fail || on.Errors != off.Errors {
		t.Fatalf("memo changed verdicts: on=%d/%d/%d reference=%d/%d/%d",
			on.Pass, on.Fail, on.Errors, off.Pass, off.Fail, off.Errors)
	}
	if on.MemoHits == 0 {
		t.Fatalf("pooled run reported no memo hits: %+v", on)
	}
}

// TestRunThroughputSweep checks the sweep mechanics: one row per worker
// count, correct verdict totals everywhere, and a baseline speedup of 1.
// Wall-clock scaling assertions are only meaningful with real cores, so
// they are gated on GOMAXPROCS.
func TestRunThroughputSweep(t *testing.T) {
	const packets, flows = 40, 2
	rows, err := RunThroughputSweep([]int{1, 2, 4}, ThroughputOptions{Packets: packets, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Speedup != 1.0 {
		t.Fatalf("baseline speedup = %v, want 1.0", rows[0].Speedup)
	}
	for _, r := range rows {
		if r.Pass != packets {
			t.Fatalf("workers=%d: pass=%d, want %d", r.Workers, r.Pass, packets)
		}
		if r.Speedup <= 0 {
			t.Fatalf("workers=%d: speedup %v not computed", r.Workers, r.Speedup)
		}
	}
	if runtime.GOMAXPROCS(0) >= 4 {
		// With real parallelism available the 4-worker row should beat the
		// serial baseline; keep the bar modest to stay robust in CI.
		if rows[2].Speedup < 1.2 {
			t.Logf("note: 4-worker speedup %.2f on %d procs (timing-sensitive, not fatal)",
				rows[2].Speedup, runtime.GOMAXPROCS(0))
		}
	}
}

// TestRunThroughputInstrumented drives a fully-wired run: every pipeline
// stage reports into the registry, and the result carries the snapshot.
// This is the acceptance check that the per-stage histograms (sign,
// verify, appraise) come back with non-zero counts, and that the verify
// and appraise stages ran once per walked packet.
func TestRunThroughputInstrumented(t *testing.T) {
	const packets, flows, workers = 40, 2, 2
	reg := telemetry.NewRegistry()
	tr := telemetry.NewFlowTracer(256)
	res, err := RunThroughput(ThroughputOptions{
		Workers: workers, Packets: packets, Flows: flows,
		Planes: Planes{Registry: reg, Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass != packets {
		t.Fatalf("pass=%d, want %d", res.Pass, packets)
	}
	if res.Telemetry == nil {
		t.Fatal("instrumented run returned no telemetry snapshot")
	}
	snap := *res.Telemetry

	// Per-stage latency histograms with non-zero counts.
	histCount := func(name string, labels ...telemetry.Label) uint64 {
		m, ok := snap.Get(name, labels...)
		if !ok || m.Hist == nil {
			t.Fatalf("%s%v missing from snapshot", name, labels)
		}
		return m.Hist.Count
	}
	if n := histCount("pera_sign_seconds", telemetry.L("switch", "sw1")); n == 0 {
		t.Fatal("sign histogram empty for sw1")
	}
	if n := histCount("pera_verify_seconds", telemetry.L("appraiser", "Appraiser")); n != packets {
		t.Fatalf("verify histogram count = %d, want %d", n, packets)
	}
	if n := histCount("pera_appraise_seconds", telemetry.L("appraiser", "Appraiser")); n != packets {
		t.Fatalf("appraise histogram count = %d, want %d", n, packets)
	}

	// Pool, cache and memo counters agree with the result struct.
	if v := snap.Value("pera_pool_jobs_total"); v != packets {
		t.Fatalf("pool jobs = %v, want %d", v, packets)
	}
	if v := snap.Value("pera_pool_pass_total"); v != float64(res.Pass) {
		t.Fatalf("pool pass = %v, result says %d", v, res.Pass)
	}
	if v := snap.Value("pera_verify_memo_hits_total"); v != float64(res.MemoHits) {
		t.Fatalf("memo hits = %v, result says %d", v, res.MemoHits)
	}
	if snap.Value("netsim_deliveries_total") == 0 {
		t.Fatal("network deliveries not counted")
	}
	if tr.Recorded() == 0 {
		t.Fatal("tracer recorded no spans")
	}
	// Spans from both halves of the pipeline: on-switch and appraisal.
	stages := map[telemetry.Stage]bool{}
	for _, sp := range tr.Spans() {
		stages[sp.Stage] = true
	}
	if !stages[telemetry.StageSign] || !stages[telemetry.StageAppraise] || !stages[telemetry.StageVerdict] {
		t.Fatalf("missing pipeline stages in trace: %v", stages)
	}
}
