package harness

import (
	"path/filepath"
	"reflect"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/pera"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// TestSLOOneHopSpanPerPlace: the switches record each hop through the
// stage seam, so a fully traced default trust-decay run holds exactly
// one hop span for every (flow, place) its packets crossed.
func TestSLOOneHopSpanPerPlace(t *testing.T) {
	tr := telemetry.NewFlowTracer(1 << 16)
	tr.SetSampleEvery(1)
	res, err := RunSLO(SLOOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ flow, place string }
	hops := map[pair]int{}
	for _, s := range tr.Spans() {
		if s.Stage == telemetry.StageHop {
			hops[pair{s.Flow, s.Place}]++
		}
	}
	if want := res.Packets * res.Hops; len(hops) != want {
		t.Fatalf("hop spans cover %d (flow, place) pairs, want %d", len(hops), want)
	}
	for p, n := range hops {
		if n != 1 {
			t.Fatalf("%d hop spans for flow %s at %s, want 1", n, p.flow, p.place)
		}
	}
}

// TestVerdictFeedAgrees is the cross-plane check on the verdict feed: a
// UC1 run wired by Attach with the ledger, the collector and the
// watchdog, and sw2's program swapped mid-run. For every place, the
// FAIL verdicts attributed to it agree across the ledger's verdict
// provenance, the collector's per-place fails and the watchdog's
// coverage fails; every place on the path also saw each verdict once in
// both the collector and the watchdog. Both read the places a verdict
// covers from the signers the appraiser verified, so that holds whether
// or not the collector also reads the switches' hops.
func TestVerdictFeedAgrees(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans bool
	}{
		{"spans", true},
		{"spans-off", false},
	} {
		t.Run(tc.name, func(t *testing.T) { verdictFeedAgrees(t, tc.spans) })
	}
}

func verdictFeedAgrees(t *testing.T, spans bool) {
	const packets, swapAt = 48, 16
	cache := evidence.NewCache()
	tb, err := usecases.NewLinearTestbed(4, pera.Config{
		InBand: true, Composition: evidence.Chained, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trail.jsonl")
	w, err := auditlog.Create(path, auditlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := observatory.New("collector")
	wd := freshness.New("watchdog", freshness.Config{})
	if spans {
		Planes{Audit: w, Collector: col, Watchdog: wd}.Attach(tb, cache)
	} else {
		// Only the verdict feed: the collector reads no switch.
		Planes{Audit: w, Watchdog: wd}.Attach(tb, cache)
		tb.Appraiser.Subscribe(col)
	}

	fails := 0
	for i := 0; i < packets; i++ {
		if i == swapAt {
			if err := usecases.AthensSwap(tb, "sw2", 9); err != nil {
				t.Fatal(err)
			}
		}
		nonce := tb.NextNonce("agree")
		hdr, err := usecases.SendUC1(tb, nonce, true, 40000+uint64(i), []byte("agree"))
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		cert, err := tb.Appraiser.Appraise("bank→client path", hdr.Evidence, nonce)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !cert.Verdict {
			fails++
		}
	}
	w.Close()
	recs, err := auditlog.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}

	ledger, collector, watchdog := map[string]uint64{}, map[string]uint64{}, map[string]uint64{}
	verdicts := 0
	for _, r := range recs {
		if r.Event != auditlog.EventVerdict {
			continue
		}
		verdicts++
		if r.Verdict == "FAIL" && r.Prov != nil && r.Prov.Place != "" {
			ledger[r.Prov.Place]++
		}
	}
	snap := col.Snapshot()
	cov := wd.Coverage()
	seen := map[string]uint64{}
	for _, p := range snap.Places {
		if p.Fails > 0 {
			collector[p.Place] = p.Fails
		}
		seen[p.Place] = p.Observed
	}
	var rows []string
	for _, p := range cov.Places {
		rows = append(rows, p.Place)
		if p.Fails > 0 {
			watchdog[p.Place] = p.Fails
		}
		if p.Verdicts != seen[p.Place] || p.Verdicts != packets {
			t.Errorf("%s: watchdog saw %d verdicts, collector %d, want %d", p.Place, p.Verdicts, seen[p.Place], packets)
		}
	}
	if want := tb.PathSwitchNames(); !reflect.DeepEqual(rows, want) {
		t.Errorf("watchdog rows %v, want the path %v", rows, want)
	}
	if verdicts != packets || snap.Verdicts != packets {
		t.Fatalf("verdicts: ledger %d, collector %d, want %d", verdicts, snap.Verdicts, packets)
	}
	if want := map[string]uint64{"sw2": packets - swapAt}; fails != packets-swapAt || !reflect.DeepEqual(ledger, want) {
		t.Fatalf("run failed %d packets, ledger attributes %v, want %v", fails, ledger, want)
	}
	if !reflect.DeepEqual(collector, ledger) || !reflect.DeepEqual(watchdog, ledger) {
		t.Fatalf("per-place FAIL verdicts disagree: ledger %v, collector %v, watchdog %v", ledger, collector, watchdog)
	}
}
