package harness

import (
	"path/filepath"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/observatory"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// runLedgered drives one UC1 throughput run with the ledger attached
// (plus whatever planes o already carries) and returns the sealed
// ledger's records.
func runLedgered(t *testing.T, o ThroughputOptions) ([]auditlog.Record, *ThroughputResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trail.jsonl")
	w, err := auditlog.Create(path, auditlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.Audit = w
	res, err := RunThroughput(o)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if d := w.Dropped(); d != 0 {
		t.Fatalf("writer dropped %d records", d)
	}
	recs, err := auditlog.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, res
}

// TestLedgerTimedWithoutOtherPlanes: the ledger alone arms stage
// timing, so a run with no registry and no tracer still records the
// duration of every switch sign and cache-miss stage.
func TestLedgerTimedWithoutOtherPlanes(t *testing.T) {
	recs, _ := runLedgered(t, ThroughputOptions{Workers: 1, Packets: 6, Flows: 3})
	seen := map[auditlog.Event]int{}
	for _, r := range recs {
		if r.Event != auditlog.EventSign && r.Event != auditlog.EventCacheMiss {
			continue
		}
		seen[r.Event]++
		if r.DurNS <= 0 {
			t.Fatalf("%s record at %s has no dur_ns: %+v", r.Event, r.Place, r)
		}
	}
	if seen[auditlog.EventSign] == 0 || seen[auditlog.EventCacheMiss] == 0 {
		t.Fatalf("run produced sign=%d cache_miss=%d records, want both", seen[auditlog.EventSign], seen[auditlog.EventCacheMiss])
	}
}

// carriers names the planes that report a (stage, place) pair.
type carriers struct {
	ledger, tracer, registry bool
	why                      string
}

// differByDesign lists the pairs whose planes differ on purpose; keys
// are "stage" or "stage@place". Every other pair the run emits must be
// counted identically by the ledger, the tracer and the registry.
var differByDesign = map[string]carriers{
	// Ledger-only lifecycle records: no stage is running when they occur.
	"ledger_open":  {ledger: true, why: "chain genesis"},
	"ledger_close": {ledger: true, why: "orderly shutdown marker"},
	"policy_bound": {ledger: true, why: "appraiser configuration"},
	"pool_drained": {ledger: true, why: "pool shutdown summary"},
	"claim_issued": {ledger: true, why: "out-of-band challenge bookkeeping"},
	"memo_insert":  {ledger: true, why: "the memo records outside any packet's recorder"},
	"cache_expire": {ledger: true, why: "expiry is found on reaping, not in a stage"},
	// Tracer-only envelope spans: tree structure around the stages.
	"hop":    {tracer: true, why: "envelope of a switch's stages"},
	"attest": {tracer: true, why: "envelope of an attester's stages"},
	// Compose is an uncounted instant: no registry series.
	"compose": {ledger: true, tracer: true, why: "no registry series"},
	// The appraiser's own verify stage: its histogram and the tracer see
	// it, but the ledger records the appraisal, not its halves.
	"verify@" + usecases.AppraiserName: {tracer: true, registry: true, why: "the ledger records the appraisal, not its halves"},
}

// registryCount is the registry's count for a stage at a place. The
// evidence-cache counters carry no place label; for them the caller
// compares the sum over places.
func registryCount(snap telemetry.Snapshot, stage, place string) (float64, bool) {
	switch telemetry.Stage(stage) {
	case telemetry.StageSign:
		return histCount(snap, "pera_sign_seconds", "switch", place), true
	case telemetry.StageVerify, telemetry.StageVerifyFail:
		if place == usecases.AppraiserName {
			return histCount(snap, "pera_verify_seconds", "appraiser", place), true
		}
		// The switch histogram times both outcomes; the fail counter
		// splits them.
		fails := snap.Value("pera_verify_fails_total", telemetry.L("switch", place))
		if stage == string(telemetry.StageVerifyFail) {
			return fails, true
		}
		return histCount(snap, "pera_switch_verify_seconds", "switch", place) - fails, true
	case telemetry.StageCacheHit:
		return snap.Value("pera_evidence_cache_hits_total"), true
	case telemetry.StageCacheMiss:
		return snap.Value("pera_evidence_cache_misses_total"), true
	case telemetry.StageAppraise:
		return histCount(snap, "pera_appraise_seconds", "", ""), true
	case telemetry.StageVerdict:
		return snap.Value("pera_pool_jobs_total"), true
	}
	return 0, false
}

// histCount sums the observation counts of a histogram family, over
// every series or only the one whose key label equals value.
func histCount(snap telemetry.Snapshot, name, key, value string) float64 {
	n := 0.0
	for _, m := range snap.Metrics {
		if m.Name != name || m.Hist == nil {
			continue
		}
		match := key == ""
		for _, l := range m.Labels {
			match = match || (l.Key == key && l.Value == value)
		}
		if match {
			n += float64(m.Hist.Count)
		}
	}
	return n
}

// TestPlanesAgree is the cross-plane consistency check: one UC1 run
// with a registry, a 1-in-1 tracer, the ledger and a collector
// attached, and for every (stage, place) the run emits, the three
// planes count it alike. Each of the 4 flows carries 4 packets, so
// chains repeat, and still every packet is appraised, and counted,
// once: by the pool, the appraise histograms, the ledger's verdict
// records and the collector.
func TestPlanesAgree(t *testing.T) {
	const packets, flows = 16, 4
	reg := telemetry.NewRegistry()
	tr := telemetry.NewFlowTracer(1 << 14)
	tr.SetSampleEvery(1)
	col := observatory.New("planes")
	recs, res := runLedgered(t, ThroughputOptions{
		Workers: 2, Packets: packets, Flows: flows,
		Planes: Planes{Registry: reg, Tracer: tr, Collector: col},
	})
	if res.Pass != packets {
		t.Fatalf("run: %+v", res)
	}
	snap := reg.Snapshot()
	verdicts := 0
	for _, r := range recs {
		if r.Event == auditlog.EventVerdict {
			verdicts++
		}
	}
	for plane, n := range map[string]float64{
		"pera_pool_jobs_total":        snap.Value("pera_pool_jobs_total"),
		"pera_appraise_seconds_count": histCount(snap, "pera_appraise_seconds", "", ""),
		"ledger verdict records":      float64(verdicts),
		"collector verdicts":          float64(col.Snapshot().Verdicts),
	} {
		if n != packets {
			t.Errorf("%s = %v, want %d", plane, n, packets)
		}
	}

	type pair struct{ stage, place string }
	ledger, tracer := map[pair]float64{}, map[pair]float64{}
	for _, r := range recs {
		ledger[pair{string(r.Event), r.Place}]++
	}
	for _, s := range tr.Spans() {
		tracer[pair{string(s.Stage), s.Place}]++
	}
	pairs := map[pair]bool{}
	for p := range ledger {
		pairs[p] = true
	}
	for p := range tracer {
		pairs[p] = true
	}
	// Placed stage histograms name pairs too, so registry-only pairs are
	// checked as well.
	placed := map[string]struct{ stage, key string }{
		"pera_sign_seconds":          {"sign", "switch"},
		"pera_switch_verify_seconds": {"verify", "switch"},
		"pera_verify_seconds":        {"verify", "appraiser"},
	}
	for _, m := range snap.Metrics {
		if st, ok := placed[m.Name]; ok && m.Hist != nil && m.Hist.Count > 0 {
			for _, l := range m.Labels {
				if l.Key == st.key {
					pairs[pair{st.stage, l.Value}] = true
				}
			}
		}
	}

	unplaced := map[string][2]float64{} // cache stages: ledger, tracer sums
	for p := range pairs {
		c, ok := differByDesign[p.stage+"@"+p.place]
		if !ok {
			c, ok = differByDesign[p.stage]
		}
		if !ok {
			c = carriers{ledger: true, tracer: true, registry: true}
		}
		if p.stage == string(telemetry.StageCacheHit) || p.stage == string(telemetry.StageCacheMiss) {
			u := unplaced[p.stage]
			u[0] += ledger[p]
			u[1] += tracer[p]
			unplaced[p.stage] = u
			continue
		}
		regN, hasReg := registryCount(snap, p.stage, p.place)
		check := func(plane string, carries bool, n float64) {
			t.Helper()
			if carries && n == 0 {
				t.Errorf("%s@%s: %s counted nothing (%s)", p.stage, p.place, plane, c.why)
			}
			if !carries && n != 0 {
				t.Errorf("%s@%s: %s counted %v, want none (%s)", p.stage, p.place, plane, n, c.why)
			}
		}
		check("ledger", c.ledger, ledger[p])
		check("tracer", c.tracer, tracer[p])
		if c.registry && !hasReg {
			t.Errorf("%s@%s: no registry series to compare", p.stage, p.place)
		}
		var counts []float64
		if c.ledger {
			counts = append(counts, ledger[p])
		}
		if c.tracer {
			counts = append(counts, tracer[p])
		}
		if c.registry {
			counts = append(counts, regN)
		}
		for _, n := range counts[1:] {
			if n != counts[0] {
				t.Errorf("%s@%s: planes disagree: ledger=%v tracer=%v registry=%v", p.stage, p.place, ledger[p], tracer[p], regN)
				break
			}
		}
	}
	if len(unplaced) == 0 {
		t.Fatal("run emitted no cache stages")
	}
	for stage, u := range unplaced {
		regN, _ := registryCount(snap, stage, "")
		if u[0] != u[1] || u[0] != regN {
			t.Errorf("%s summed over places: ledger=%v tracer=%v registry=%v", stage, u[0], u[1], regN)
		}
	}
}
