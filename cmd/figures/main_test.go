package main

import (
	"testing"

	"pera/internal/harness"
)

// TestFig3TableShape pins the Fig. 3 table: one row per harness.Fig3Stages
// entry, in order, each a median inside its quartiles.
func TestFig3TableShape(t *testing.T) {
	rows, err := runFig3(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(harness.Fig3Stages) {
		t.Fatalf("%d rows for %d stages", len(rows), len(harness.Fig3Stages))
	}
	for i, r := range rows {
		if r.Stage != harness.Fig3Stages[i] {
			t.Fatalf("row %d is %q, want %q", i, r.Stage, harness.Fig3Stages[i])
		}
		if !(r.NsQ1 <= r.NsPerOp && r.NsPerOp <= r.NsQ3) || r.NsQ1 <= 0 {
			t.Fatalf("%s: median %.0f outside [%.0f–%.0f]", r.Stage, r.NsPerOp, r.NsQ1, r.NsQ3)
		}
		if r.Rounds != 3 || r.Iters != 4 {
			t.Fatalf("%s: %d rounds of %d", r.Stage, r.Rounds, r.Iters)
		}
	}
}
