// Command figures regenerates the paper's artifacts as printed tables:
// Table 1 (the attestation policies, compiled and executed), Fig. 1 (the
// attestation round), Fig. 2 (in-band vs out-of-band evidence flows),
// Fig. 3 (pipeline stage costs) and Fig. 4 (the Inertia × Detail ×
// Composition design space). The output of this command is the measured
// half of EXPERIMENTS.md.
//
// Usage:
//
//	figures [-only table1|fig1|fig2|fig3|fig4] [-packets 2000] [-flows 50]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pera/internal/harness"
	"pera/internal/pera"
)

func main() {
	var (
		only    = flag.String("only", "", "run a single artifact: table1, fig1, fig2, fig3, fig4")
		packets = flag.Int("packets", 2000, "packets per Fig. 4 design point")
		flows   = flag.Int("flows", 50, "distinct flows in the Fig. 4 workload")
	)
	flag.Parse()

	runners := []struct {
		name string
		fn   func(int, int) error
	}{
		{"table1", func(int, int) error { return table1() }},
		{"fig1", func(int, int) error { return fig1() }},
		{"fig2", func(int, int) error { return fig2() }},
		{"fig3", func(int, int) error { return fig3() }},
		{"fig4", fig4},
		{"fig4comp", func(int, int) error { return fig4comp() }},
		{"uc3", func(int, int) error { return uc3() }},
		{"attacks", func(int, int) error { return attacks() }},
		{"fig4work", func(int, int) error { return fig4work() }},
	}
	for _, r := range runners {
		if *only != "" && r.name != *only {
			continue
		}
		if err := r.fn(*packets, *flows); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func table1() error {
	fmt.Println("== Table 1: attestation policies in network-aware Copland ==")
	rows, err := harness.RunTable1()
	if err != nil {
		return err
	}
	fmt.Printf("%-5s %-7s %-6s %-5s %-6s %-6s %-7s %-7s %s\n",
		"AP", "parsed", "bound", "obls", "hosts", "wireB", "honest", "attack", "note")
	for _, r := range rows {
		fmt.Printf("%-5s %-7v %-6v %-5d %-6d %-6d %-7v %-7v %s\n",
			r.Policy, r.Parsed, r.Bound, r.Obligations, r.HostPhrases,
			r.WireBytes, r.HonestVerdict, r.AttackCaught, r.Note)
	}
	return nil
}

func fig1() error {
	fmt.Println("== Fig. 1: one remote-attestation round ==")
	st, err := harness.RunFig1()
	if err != nil {
		return err
	}
	fmt.Printf("evidence bytes: %d   signatures: %d   verdict: %v   elapsed: %v\n",
		st.EvidenceBytes, st.Signatures, st.Verdict, st.Elapsed.Round(time.Microsecond))
	return nil
}

func fig2() error {
	fmt.Println("== Fig. 2: in-band vs out-of-band evidence (100 flows) ==")
	rows, err := harness.RunFig2(100)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-6s %-14s %-9s %-10s %-8s %s\n",
		"variant", "flows", "wire-overhead", "oob-msgs", "rp-rounds", "stored", "appraised-ok")
	for _, r := range rows {
		fmt.Printf("%-12s %-6d %-14d %-9d %-10d %-8d %v\n",
			r.Variant, r.Flows, r.WireOverhead, r.OOBMessages, r.RPRoundTrips,
			r.CertsStored, r.AllAppraisedOK)
	}
	return nil
}

func fig3() error {
	fmt.Println("== Fig. 3: per-packet pipeline cost by evidence stage ==")
	rows, err := runFig3(20, 2000)
	if err != nil {
		return err
	}
	fmt.Printf("(%d rounds of %d packets per stage, stages round-robin: median [q1–q3])\n",
		rows[0].Rounds, rows[0].Iters)
	fmt.Printf("%-18s %10s  %s\n", "stage", "ns/packet", "[q1–q3]")
	for _, r := range rows {
		fmt.Printf("%-18s %10.0f  [%.0f–%.0f]\n", r.Stage, r.NsPerOp, r.NsQ1, r.NsQ3)
	}
	return nil
}

// fig3Row is one pipeline-stage cost measurement: the median and
// quartiles of its per-round nanoseconds per packet.
type fig3Row struct {
	Stage         string
	NsPerOp       float64 // median
	NsQ1, NsQ3    float64
	Rounds, Iters int
}

// runFig3 times every harness.Fig3Stages configuration round-robin: in each of
// rounds rounds, iters packets through each stage in turn, each on its
// own switch and, across the whole run, each with its own nonce; one
// untimed round first warms every stage. A stage's row is the median and
// quartiles of its rounds, so host drift spreads over every stage alike
// instead of skewing the stages that ran during it, and the spread says
// which gaps between stages resolve.
func runFig3(rounds, iters int) ([]fig3Row, error) {
	type bench struct {
		sw     *pera.Switch
		frame  []byte
		inband [][]byte
		ns     []float64
	}
	benches := make([]bench, len(harness.Fig3Stages))
	for s, stage := range harness.Fig3Stages {
		sw, frame, err := harness.NewFig3Switch()
		if err != nil {
			return nil, err
		}
		benches[s] = bench{sw: sw, frame: frame}
		if stage == "+inband-header" {
			benches[s].inband = harness.Fig3InbandFrames(sw, frame, (rounds+1)*iters)
		}
	}
	for r := 0; r <= rounds; r++ { // round 0 warms up
		for s, stage := range harness.Fig3Stages {
			b := &benches[s]
			start := time.Now()
			for i := r * iters; i < (r+1)*iters; i++ {
				if err := harness.RunFig3Stage(stage, b.sw, b.frame, b.inband, i); err != nil {
					return nil, err
				}
			}
			if r > 0 {
				b.ns = append(b.ns, float64(time.Since(start).Nanoseconds())/float64(iters))
			}
		}
	}
	rows := make([]fig3Row, len(harness.Fig3Stages))
	for s, stage := range harness.Fig3Stages {
		ns := benches[s].ns
		sort.Float64s(ns)
		rows[s] = fig3Row{Stage: stage, NsPerOp: quantile(ns, 0.5),
			NsQ1: quantile(ns, 0.25), NsQ3: quantile(ns, 0.75), Rounds: rounds, Iters: iters}
	}
	return rows, nil
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func attacks() error {
	fmt.Println("== §4.2: adversary-capability matrix (infection detected?) ==")
	cells, err := harness.RunAttackMatrix()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %-9s %-11s %s\n",
		"protocol", "adversary", "detected", "sigs-valid", "static-analysis")
	for _, c := range cells {
		verdict := "protected"
		if c.AnalysisVulnerable {
			verdict = "vulnerable"
		}
		fmt.Printf("%-14s %-20s %-9v %-11v %s\n",
			c.Protocol, c.Strategy, c.Detected, c.SigsValid, verdict)
	}
	return nil
}

func uc3() error {
	fmt.Println("== UC3: DDoS-mitigation efficacy (evidence-gated forwarding, 1000 packets) ==")
	rows, err := harness.RunDDoSSweep(1000)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-14s %-15s %-14s %-12s\n",
		"attack-share", "legit-offered", "legit-goodput", "attack-offered", "attack-leak")
	for _, r := range rows {
		fmt.Printf("%-13.2f %-14d %-15.2f %-14d %-12.2f\n",
			r.AttackShare, r.LegitOffered, r.LegitGoodput(), r.AttackOffered, r.AttackLeakRate())
	}
	return nil
}

func fig4comp() error {
	fmt.Println("== Fig. 4 (composition axis): chained vs pointwise over path length ==")
	rows, err := harness.RunCompositionSweep(5)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-5s %-9s %-13s %-8s %-13s %s\n",
		"comp", "hops", "oob-msgs", "final-bytes", "signers", "wire-bytes", "chain-verifies")
	for _, r := range rows {
		fmt.Printf("%-10s %-5d %-9d %-13d %-8d %-13d %v\n",
			r.Composition, r.Hops, r.OOBMessages, r.FinalEvBytes,
			r.FinalSigners, r.WireOverhead, r.ChainVerifies)
	}
	return nil
}

func fig4(packets, flows int) error {
	fmt.Printf("== Fig. 4: design space (%d packets, %d flows per point) ==\n", packets, flows)
	rows, err := harness.RunFig4Sweep(packets, flows)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %-10s %-9s %-11s %-11s %-9s\n",
		"comp", "detail", "sampling", "evidence", "signatures", "evid-bytes", "cache-hit")
	for _, r := range rows {
		fmt.Printf("%-10s %-10s %-10s %-9d %-11d %-11d %.2f\n",
			r.Config.Composition, r.Config.Detail, r.Config.Sampling,
			r.EvidenceCount, r.Signatures, r.EvidenceBytes, r.CacheHitRate)
	}
	return nil
}

func fig4work() error {
	fmt.Println("== Fig. 4 (sampling × workload): per-flow sampling vs arrival pattern ==")
	rows, err := harness.RunWorkloadSensitivity(4000, 64)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %-7s %-9s %-11s %-15s %s\n",
		"pattern", "flows", "packets", "evidences", "evid/1kpkt", "top-flow-share")
	for _, r := range rows {
		fmt.Printf("%-9s %-7d %-9d %-11d %-15.1f %.2f\n",
			r.Pattern, r.Flows, r.Packets, r.Evidences, r.EvidencePerKp, r.TopFlowShare)
	}
	return nil
}
