package harness

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pera/internal/auditlog"
	"pera/internal/observatory"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// End-to-end acceptance test for the observatory: a 4-hop UC1 chain with
// one compromised switch. Three independent observers of the same
// traffic must agree on the path — the collector's path traces,
// netsim's delivery trace, and the audit ledger's per-flow sign
// sequence — and the collector must localize the compromise to the
// attacked switch within the anomaly window.

func TestObserveE2EPathAgreementAndLocalization(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "trail.jsonl")
	w, err := auditlog.Create(ledger, auditlog.Options{KeyID: "obs-e2e"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunObserve(ObserveOptions{
		Hops: 4, Packets: 96, AttackAfter: 32, AttackSwitch: "sw3",
		NetTracing: true, Audit: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if d := w.Dropped(); d != 0 {
		t.Fatalf("ledger dropped %d records", d)
	}

	wantHops := res.PathSwitches()
	if len(wantHops) != 4 || !reflect.DeepEqual(wantHops, []string{"sw1", "sw2", "sw3", "sw4"}) {
		t.Fatalf("path switches: %v", wantHops)
	}

	// Verdict shape: clean before the swap, failing after.
	if res.AttackAt != 32 || res.Pass != 32 || res.Fail != 64 {
		t.Fatalf("attack at %d, pass %d, fail %d", res.AttackAt, res.Pass, res.Fail)
	}

	// Localization: the right switch, within 64 packets of the swap.
	loc := res.Localization
	if loc == nil {
		t.Fatal("compromise never localized")
	}
	if loc.Place != "sw3" {
		t.Fatalf("localized %q, want sw3", loc.Place)
	}
	if res.LocalizedAt == 0 || res.LocalizedAt-res.AttackAt > 64 {
		t.Fatalf("localized at packet %d, attack at %d — outside the 64-packet window",
			res.LocalizedAt, res.AttackAt)
	}

	// Observer 1 — collector path traces: every retained trace names the
	// full hop sequence, in order, keyed by its nonce.
	snap := res.Collector.Snapshot()
	if snap.Traces != uint64(res.Packets) {
		t.Fatalf("collector ingested %d traces, want %d", snap.Traces, res.Packets)
	}
	if len(snap.Paths) == 0 {
		t.Fatal("no retained path traces")
	}
	flowSet := map[string]bool{}
	for _, f := range res.Flows {
		flowSet[f] = true
	}
	for _, pt := range snap.Paths {
		if !flowSet[pt.Flow] {
			t.Fatalf("trace %d keyed by unknown flow %q", pt.Seq, pt.Flow)
		}
		var got []string
		for _, h := range pt.Hops {
			got = append(got, h.Place)
		}
		if !reflect.DeepEqual(got, wantHops) {
			t.Fatalf("trace %d hop order %v, want %v", pt.Seq, got, wantHops)
		}
	}

	// Observer 2 — netsim delivery trace: the wire order of the first
	// frame's traversal must match the trace's hop order.
	var wire []string
	for _, e := range res.Testbed.Net.Trace() {
		if e.To == usecases.HostClient {
			break
		}
		if _, ok := res.Testbed.Switches[e.To]; ok {
			wire = append(wire, e.To)
		}
	}
	if !reflect.DeepEqual(wire, wantHops) {
		t.Fatalf("delivery trace hop order %v, want %v", wire, wantHops)
	}

	// Observer 3 — audit ledger: the per-flow sign-event place sequence
	// must match too, for a pre-attack and a post-attack flow.
	records, err := auditlog.ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	for _, flow := range []string{res.Flows[0], res.Flows[len(res.Flows)-1]} {
		signs := auditlog.Query{Flow: flow, Event: string(auditlog.EventSign)}.Filter(records)
		var places []string
		for _, r := range signs {
			if len(places) == 0 || places[len(places)-1] != r.Place {
				places = append(places, r.Place)
			}
		}
		if !reflect.DeepEqual(places, wantHops) {
			t.Fatalf("ledger sign sequence for flow %s: %v, want %v", flow, places, wantHops)
		}
	}

	// The ledger's verdict provenance and the collector's localization
	// name the same place.
	lastFlow := res.Flows[len(res.Flows)-1]
	verdicts := auditlog.Query{Flow: lastFlow, Event: string(auditlog.EventVerdict)}.Filter(records)
	if len(verdicts) != 1 {
		t.Fatalf("flow %s has %d verdict records", lastFlow, len(verdicts))
	}
	v := verdicts[0]
	if v.Verdict != "FAIL" || v.Prov == nil || v.Prov.Place != "sw3" {
		t.Fatalf("ledger verdict: %+v (prov %+v)", v, v.Prov)
	}
}

// TestObserveSampling: the collector reads every hop whatever the
// tracer samples. With a 1-in-8 tracer on the run, every packet still
// yields a path trace under its flow and localization lands on the
// attacked switch, while the tracer records hops for only some flows.
func TestObserveSampling(t *testing.T) {
	tr := telemetry.NewFlowTracer(1 << 16)
	tr.SetSampleEvery(8)
	res, err := RunObserve(ObserveOptions{
		Hops: 4, Packets: 96, AttackAfter: 32, AttackSwitch: "sw2",
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Collector.Snapshot()
	if snap.Traces != uint64(res.Packets) {
		t.Fatalf("collector ingested %d traces of %d packets", snap.Traces, res.Packets)
	}
	for _, pt := range snap.Paths {
		if len(pt.Hops) != res.Hops || !slices.Contains(res.Flows, pt.Flow) {
			t.Fatalf("trace %d: flow %q, %d hops", pt.Seq, pt.Flow, len(pt.Hops))
		}
	}
	traced := map[string]bool{}
	for _, s := range tr.Spans() {
		if s.Stage == telemetry.StageHop {
			traced[s.Flow] = true
		}
	}
	if len(traced) == 0 || len(traced) >= res.Packets {
		t.Fatalf("a 1-in-8 tracer recorded hops of %d of %d flows", len(traced), res.Packets)
	}
	if res.Localization == nil || res.Localization.Place != "sw2" {
		t.Fatalf("localization: %+v", res.Localization)
	}
}

// TestObservatoryAgreesWithTracer: the collector and the tracer read
// the same stage events, so for every (flow, place) the collector's hop
// row and the tracer's hop, verify and sign spans agree on the hop's
// total, Verify and Sign time to the nanosecond, and every trace's hop
// order is the order the tracer recorded the flow's hops in. The run is
// short enough that the snapshot holds every trace.
func TestObservatoryAgreesWithTracer(t *testing.T) {
	tr := telemetry.NewFlowTracer(1 << 16)
	tr.SetSampleEvery(1)
	res, err := RunObserve(ObserveOptions{Packets: observatory.MaxSnapshotPaths, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ flow, place string }
	type times struct{ total, verify, sign uint64 }
	traced := map[key]times{}
	order := map[string][]string{}
	for _, s := range tr.Spans() {
		if _, ok := res.Testbed.Switches[s.Place]; !ok {
			continue
		}
		k := key{s.Flow, s.Place}
		ts := traced[k]
		switch s.Stage {
		case telemetry.StageHop:
			ts.total = uint64(s.Dur)
			order[s.Flow] = append(order[s.Flow], s.Place)
		case telemetry.StageVerify, telemetry.StageVerifyFail:
			ts.verify += uint64(s.Dur)
		case telemetry.StageSign:
			ts.sign += uint64(s.Dur)
		}
		traced[k] = ts
	}
	snap := res.Collector.Snapshot()
	if len(snap.Paths) != res.Packets {
		t.Fatalf("snapshot holds %d traces, want all %d", len(snap.Paths), res.Packets)
	}
	rows := 0
	for _, pt := range snap.Paths {
		var places []string
		for _, h := range pt.Hops {
			places = append(places, h.Place)
			got := times{h.TotalNS, h.VerifyNS, h.SignNS}
			if want := traced[key{pt.Flow, h.Place}]; got != want || got.total == 0 || got.sign == 0 {
				t.Fatalf("flow %s at %s: collector (total, verify, sign) %v ns, tracer %v ns", pt.Flow, h.Place, got, want)
			}
			rows++
		}
		if !reflect.DeepEqual(places, order[pt.Flow]) {
			t.Fatalf("flow %s: collector hop order %v, tracer %v", pt.Flow, places, order[pt.Flow])
		}
	}
	if rows != len(traced) || rows != res.Packets*res.Hops {
		t.Fatalf("collector holds %d hop rows, tracer %d (flow, place) pairs, want %d", rows, len(traced), res.Packets*res.Hops)
	}
}

// TestObserveNoAttack: a clean run never localizes anything.
func TestObserveNoAttack(t *testing.T) {
	res, err := RunObserve(ObserveOptions{Hops: 4, Packets: 48, AttackAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fail != 0 || res.Localization != nil {
		t.Fatalf("clean run: fail %d, localization %+v", res.Fail, res.Localization)
	}
	snap := res.Collector.Snapshot()
	if len(snap.Places) < 4 {
		t.Fatalf("places: %+v", snap.Places)
	}
}
