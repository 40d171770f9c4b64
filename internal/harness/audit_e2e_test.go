package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/telemetry"
)

// End-to-end property test for the audit ledger: a real UC1 throughput
// run writes the ledger, and then (a) the chain verifies, (b) flipping
// any single byte is detected at exactly the record that contains it,
// and (c) the ledger's per-flow timeline agrees with the FlowTracer's
// span sequence — two independent observers of the same pipeline.

// auditStages is the set of ledger events that are also tracer stages
// (identical strings by construction); ledger-only events such as
// claim_issued or memo_insert have no tracer counterpart.
var auditStages = map[string]bool{
	string(telemetry.StageSign):       true,
	string(telemetry.StageEvidence):   true,
	string(telemetry.StageCompose):    true,
	string(telemetry.StageCacheHit):   true,
	string(telemetry.StageCacheMiss):  true,
	string(telemetry.StageVerify):     true,
	string(telemetry.StageVerifyFail): true,
	string(telemetry.StageAppraise):   true,
	string(telemetry.StageVerdict):    true,
}

// runAuditedThroughput drives one UC1 throughput run with both the
// ledger and the tracer attached and returns the sealed ledger path,
// the tracer and the run result.
func runAuditedThroughput(t *testing.T, packets, flows int) (string, *telemetry.FlowTracer, *ThroughputResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trail.jsonl")
	w, err := auditlog.Create(path, auditlog.Options{KeyID: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewFlowTracer(1 << 16)
	tr.SetSampleEvery(1)
	// One worker: appraisals run sequentially, so the ledger's total
	// order and the tracer's span order can be compared exactly.
	res, err := RunThroughput(ThroughputOptions{
		Workers: 1, Packets: packets, Flows: flows, Memo: true,
		Planes: Planes{Tracer: tr, Audit: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if d := w.Dropped(); d != 0 {
		t.Fatalf("writer dropped %d records; the properties below assume a complete ledger", d)
	}
	return path, tr, res
}

func TestAuditLedgerEndToEnd(t *testing.T) {
	path, tr, res := runAuditedThroughput(t, 12, 3)
	if res.Errors != 0 || res.Pass == 0 {
		t.Fatalf("throughput run: %+v", res)
	}

	// (a) The pristine ledger verifies.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	total, err := auditlog.VerifyReader(bytes.NewReader(raw), auditlog.DevKey())
	if err != nil {
		t.Fatalf("pristine ledger: %v", err)
	}
	if total < 12 {
		t.Fatalf("suspiciously small ledger: %d records", total)
	}

	// (b) Flipping any byte fails verification at the record containing
	// it. Exhaustive over small ledgers is too slow here, so sample a
	// fixed stride plus the boundaries; the auditlog unit tests cover
	// every offset on a small chain.
	lineOf := make([]int, len(raw))
	line := 0
	for i, b := range raw {
		lineOf[i] = line
		if b == '\n' {
			line++
		}
	}
	offsets := []int{0, 1, len(raw) - 2, len(raw) - 1}
	for off := 7; off < len(raw); off += 251 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		n, err := auditlog.VerifyReader(bytes.NewReader(mut), auditlog.DevKey())
		if err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
		var te *auditlog.TamperError
		if !errors.As(err, &te) {
			t.Fatalf("flip at offset %d: unexpected error %v", off, err)
		}
		want := lineOf[off]
		// Flipping a newline merges two lines; the damage is then
		// attributed to the merged record.
		if te.Index != want && !(raw[off] == '\n' && te.Index == want+1) {
			t.Fatalf("flip at offset %d (line %d) reported at record %d", off, want, te.Index)
		}
		// The framing check (a flipped final newline) fires before any
		// record is verified, so it reports 0 intact; every other tamper
		// reports exactly the records preceding the damage.
		if n != te.Index && n != 0 {
			t.Fatalf("flip at offset %d: %d records reported intact before tamper at %d", off, n, te.Index)
		}
	}

	// (c) For every traced flow, the ledger timeline restricted to the
	// stage events matches the tracer's span sequence — same stages, same
	// places, same order. Two independent instruments, one story.
	recs, err := auditlog.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	flows := map[string]bool{}
	for _, s := range tr.Spans() {
		flows[s.Flow] = true
	}
	if len(flows) < 3 {
		t.Fatalf("tracer saw %d flows, want >= 3", len(flows))
	}
	for flow := range flows {
		type step struct{ place, stage string }
		var fromTracer, fromLedger []step
		// Envelope spans (hop/attest/appraisal/...) are trace-only tree
		// structure with no ledger counterpart; compare the shared set.
		for _, s := range tr.Flow(flow) {
			if auditStages[string(s.Stage)] {
				fromTracer = append(fromTracer, step{s.Place, string(s.Stage)})
			}
		}
		for _, r := range auditlog.Explain(recs, flow) {
			if auditStages[string(r.Event)] {
				fromLedger = append(fromLedger, step{r.Place, string(r.Event)})
			}
		}
		if len(fromTracer) == 0 {
			// Flows that carry only envelope spans have no ledger
			// timeline to match.
			continue
		}
		if len(fromTracer) != len(fromLedger) {
			t.Fatalf("flow %s: tracer has %d stage spans, ledger has %d stage records\ntracer: %v\nledger: %v",
				flow, len(fromTracer), len(fromLedger), fromTracer, fromLedger)
		}
		for i := range fromTracer {
			if fromTracer[i] != fromLedger[i] {
				t.Fatalf("flow %s step %d: tracer %v, ledger %v", flow, i, fromTracer[i], fromLedger[i])
			}
		}
	}
}
