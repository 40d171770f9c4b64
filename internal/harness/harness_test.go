package harness

import (
	"testing"

	"pera/internal/evidence"
)

func TestRunTable1AllPoliciesReproduce(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if !r.Parsed || !r.Bound {
			t.Errorf("%s: parsed=%v bound=%v", r.Policy, r.Parsed, r.Bound)
		}
		if !r.HonestVerdict {
			t.Errorf("%s: honest run failed", r.Policy)
		}
		if !r.AttackCaught {
			t.Errorf("%s: attack not caught", r.Policy)
		}
		if r.WireBytes <= 0 {
			t.Errorf("%s: wire bytes %d", r.Policy, r.WireBytes)
		}
	}
	if rows[0].Obligations != 1 || rows[0].HostPhrases != 1 {
		t.Errorf("AP1 shape: %+v", rows[0])
	}
	if rows[2].Obligations != 3 || rows[2].HostPhrases != 2 {
		t.Errorf("AP3 shape: %+v", rows[2])
	}
}

func TestRunFig1(t *testing.T) {
	st, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verdict {
		t.Fatal("round failed")
	}
	if st.EvidenceBytes <= 0 || st.Signatures != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRunFig2Shapes(t *testing.T) {
	rows, err := RunFig2(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	ib, oob := rows[0], rows[1]
	if ib.Variant != "in-band" || oob.Variant != "out-of-band" {
		t.Fatalf("variants: %q %q", ib.Variant, oob.Variant)
	}
	// The paper's trade: in-band pays wire bytes, no appraiser traffic;
	// out-of-band pays appraiser messages and stored certs, clean wire.
	if ib.WireOverhead == 0 || ib.OOBMessages != 0 || ib.RPRoundTrips != 1 {
		t.Fatalf("in-band shape: %+v", ib)
	}
	if oob.WireOverhead != 0 || oob.OOBMessages == 0 || oob.RPRoundTrips != 2 || oob.CertsStored == 0 {
		t.Fatalf("out-of-band shape: %+v", oob)
	}
	if !ib.AllAppraisedOK || !oob.AllAppraisedOK {
		t.Fatal("appraisals failed")
	}
	// 3 attesting hops → 3 messages per flow out-of-band.
	if oob.OOBMessages != 3*uint64(oob.Flows) {
		t.Fatalf("oob messages: %d for %d flows", oob.OOBMessages, oob.Flows)
	}
}

func TestFig3StagesAllRun(t *testing.T) {
	for _, stage := range Fig3Stages {
		sw, frame, err := NewFig3Switch()
		if err != nil {
			t.Fatal(err)
		}
		var inband [][]byte
		if stage == "+inband-header" {
			inband = Fig3InbandFrames(sw, frame, 3)
		}
		for i := 0; i < 3; i++ {
			if err := RunFig3Stage(stage, sw, frame, inband, i); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
		// Each iteration signs a chain of its own, so the Sign stage
		// times Ed25519, not the switch's Sign-stage memo.
		if hits := sw.Stats().SignMemoHits; hits != 0 {
			t.Fatalf("%s: %d sign memo hits, want every iteration to sign afresh", stage, hits)
		}
	}
	sw, frame, _ := NewFig3Switch()
	if err := RunFig3Stage("ghost", sw, frame, nil, 0); err == nil {
		t.Fatal("unknown stage ran")
	}
}

func TestRunFig4PointShapes(t *testing.T) {
	// Per-packet at packet detail: evidence for every packet, no cache.
	row, err := RunFig4Point(Fig4Config{
		Detail: evidence.DetailPackets, Sampling: evidence.SamplePerPacket, Composition: evidence.Pointwise,
	}, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if row.EvidenceCount != 100 || row.Signatures != 100 {
		t.Fatalf("per-packet shape: %+v", row)
	}
	if row.CacheHitRate != 0 {
		t.Fatalf("packet detail cached: %+v", row)
	}

	// Per-flow at program detail: one evidence per flow, cache hot.
	row, err = RunFig4Point(Fig4Config{
		Detail: evidence.DetailProgram, Sampling: evidence.SamplePerFlow, Composition: evidence.Pointwise,
	}, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if row.EvidenceCount != 10 {
		t.Fatalf("per-flow shape: %+v", row)
	}
	if row.CacheHitRate < 0.5 {
		t.Fatalf("program detail cache cold: %+v", row)
	}

	// Zero flows defaults to one.
	if _, err := RunFig4Point(Fig4Config{Detail: evidence.DetailProgram}, 5, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig4SweepCoversGrid(t *testing.T) {
	rows, err := RunFig4Sweep(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := len(evidence.Compositions()) * len(evidence.Details()) * len(evidence.Samplings())
	if len(rows) != want {
		t.Fatalf("grid: %d rows, want %d", len(rows), want)
	}
}

func TestRunCompositionShapes(t *testing.T) {
	for _, hops := range []int{1, 3} {
		ch, err := RunComposition(evidence.Chained, hops)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := RunComposition(evidence.Pointwise, hops)
		if err != nil {
			t.Fatal(err)
		}
		// Chained: no OOB messages, signer per hop, verifiable chain.
		if ch.OOBMessages != 0 || ch.FinalSigners != hops || !ch.ChainVerifies {
			t.Fatalf("chained %d hops: %+v", hops, ch)
		}
		// Pointwise: one OOB message per hop, no chain in the header.
		if pw.OOBMessages != uint64(hops) || pw.FinalSigners != 0 || pw.ChainVerifies {
			t.Fatalf("pointwise %d hops: %+v", hops, pw)
		}
		// The chain grows with the path.
		if ch.FinalEvBytes <= pw.FinalEvBytes {
			t.Fatalf("chain not growing: %d vs %d", ch.FinalEvBytes, pw.FinalEvBytes)
		}
	}
	// Chain size increases monotonically with hops.
	a, _ := RunComposition(evidence.Chained, 2)
	b, _ := RunComposition(evidence.Chained, 4)
	if b.FinalEvBytes <= a.FinalEvBytes {
		t.Fatalf("chain bytes: %d (2 hops) vs %d (4 hops)", a.FinalEvBytes, b.FinalEvBytes)
	}
	if _, err := RunComposition(evidence.Chained, 0); err == nil {
		t.Fatal("zero hops accepted")
	}
}

func TestRunDDoSEfficacy(t *testing.T) {
	row, err := RunDDoS(200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Every legitimate packet survives; no attack packet leaks.
	if row.LegitGoodput() != 1.0 {
		t.Fatalf("legit goodput %v: %+v", row.LegitGoodput(), row)
	}
	if row.AttackLeakRate() != 0 {
		t.Fatalf("attack leaked: %+v", row)
	}
	if row.AttackOffered == 0 || row.LegitOffered == 0 {
		t.Fatalf("degenerate mix: %+v", row)
	}
	// Zero attack share: pure legit traffic flows.
	row, err = RunDDoS(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.AttackOffered != 0 || row.LegitDelivered != row.LegitOffered {
		t.Fatalf("clean run: %+v", row)
	}
	if (DDoSRow{}).LegitGoodput() != 0 || (DDoSRow{}).AttackLeakRate() != 0 {
		t.Fatal("zero-division guards")
	}
}

func TestRunDDoSSweep(t *testing.T) {
	rows, err := RunDDoSSweep(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.LegitGoodput() != 1.0 || r.AttackLeakRate() != 0 {
			t.Fatalf("efficacy breaks at share %v: %+v", r.AttackShare, r)
		}
	}
}

func TestAttackMatrixReproducesCapabilityModel(t *testing.T) {
	cells, err := RunAttackMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("cells: %d", len(cells))
	}
	want := map[string]bool{ // protocol/strategy → detected?
		"parallel(1)/none":                 true,  // honest bmon reports the infection
		"parallel(1)/corrupt-only":         true,  // av sees the corrupt bmon
		"parallel(1)/repair-after-lie":     false, // THE §4.2 attack
		"parallel(1)/corrupt-after-check":  false, // TOCTOU beats it too
		"sequenced(2)/none":                true,
		"sequenced(2)/corrupt-only":        true,
		"sequenced(2)/repair-after-lie":    true,  // sequencing closes the window
		"sequenced(2)/corrupt-after-check": false, // stronger adversary still wins
	}
	for _, c := range cells {
		key := c.Protocol + "/" + c.Strategy.String()
		wantDetected, ok := want[key]
		if !ok {
			t.Fatalf("unexpected cell %s", key)
		}
		if c.Detected != wantDetected {
			t.Errorf("%s: detected=%v, want %v", key, c.Detected, wantDetected)
		}
		// Lying never breaks signatures — the adversary has the agents,
		// not the keys.
		if !c.SigsValid {
			t.Errorf("%s: signatures broken", key)
		}
		// The analyzer flags parallel(1) and clears sequenced(2).
		if wantVuln := c.Protocol == "parallel(1)"; c.AnalysisVulnerable != wantVuln {
			t.Errorf("%s: analysis vulnerable=%v, want %v", key, c.AnalysisVulnerable, wantVuln)
		}
	}
}

func TestRunWorkloadSensitivity(t *testing.T) {
	rows, err := RunWorkloadSensitivity(400, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	byName := map[string]WorkloadRow{}
	for _, r := range rows {
		byName[r.Pattern.String()] = r
		if r.Evidences == 0 || r.Evidences > uint64(r.Flows) {
			t.Fatalf("%v: evidences %d out of range", r.Pattern, r.Evidences)
		}
	}
	// Uniform exposes every flow → one attestation per flow.
	if byName["uniform"].Evidences != 64 {
		t.Fatalf("uniform: %+v", byName["uniform"])
	}
	// Skewed traffic hides the tail → strictly fewer attestations.
	if byName["skewed"].Evidences >= byName["uniform"].Evidences {
		t.Fatalf("skew did not reduce per-flow evidence: %+v vs %+v",
			byName["skewed"], byName["uniform"])
	}
	if byName["skewed"].TopFlowShare < 0.3 {
		t.Fatalf("skew measure: %+v", byName["skewed"])
	}
}
