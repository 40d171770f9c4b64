package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pera/internal/freshness"
	"pera/internal/harness"
)

// runSLO drives the trust-decay scenario: attested UC1 traffic over a
// linear chain on a simulated clock, with one switch's re-attestation
// frozen mid-run. The freshness watchdog burns its SLO, fires an alert,
// probes the dark device through the RATS loop, and — unless recovery
// is disabled — resolves once the probe appraises clean. Human-readable
// tables go to stdout (stderr in machine modes); -json writes the
// coverage and alert snapshots to stdout; with -telemetry the watchdog
// also serves /coverage.json and /alerts.json live.
func runSLO() error {
	out := os.Stderr
	fmt.Fprintln(out, "== Trust decay: freshness SLOs, coverage map, re-attestation probes ==")
	opts := harness.SLOOptions{
		Hops:         *sloHops,
		Packets:      *sloPkts,
		FreezeAfter:  *sloFreeze,
		FreezeSwitch: *sloFreezeSw,
		RecoverAfter: *sloRecover,
		CacheTTL:     time.Duration(*sloTTL) * time.Second,
		Tick:         time.Duration(*sloTick) * time.Second,
		Memo:         !*memoOff,
		Watchdog:     watchdog,
		Collector:    collector,
		AlertLog:     os.Stderr,
		Registry:     pl.Registry,
		Tracer:       pl.Tracer,
		Audit:        pl.Audit,
	}
	fmt.Fprintf(out, "chain: bank — sw1..sw%d — client, %d packets at %ds/packet, evidence TTL %ds\n",
		opts.Hops, opts.Packets, *sloTick, *sloTTL)
	res, err := harness.RunSLO(opts)
	if err != nil {
		return err
	}
	if res.FreezeAt >= 0 {
		fmt.Fprintf(out, "adversary froze %s's re-attestation after packet %d (in-band verdicts kept passing: %d PASS, %d FAIL)\n",
			res.FreezeSwitch, res.FreezeAt, res.Pass, res.Fail)
	}
	if res.BurnFiredAt > 0 {
		fmt.Fprintf(out, "burn-rate alert fired at packet %d (early warning)\n", res.BurnFiredAt)
	}
	if res.StalenessFiredAt > 0 {
		fmt.Fprintf(out, "staleness alert fired at packet %d (budget: lapsed ≥ %v)\n",
			res.StalenessFiredAt, res.Budget.LapsedAfter)
	} else {
		fmt.Fprintln(out, "no staleness alert fired")
	}
	switch {
	case res.RecoverAt >= 0 && res.ResolvedAt > 0:
		fmt.Fprintf(out, "device recovered at packet %d; probes refreshed evidence; all alerts resolved by packet %d\n",
			res.RecoverAt, res.ResolvedAt)
	case res.RecoverAt >= 0:
		fmt.Fprintf(out, "device recovered at packet %d but alerts did not resolve in-run\n", res.RecoverAt)
	default:
		fmt.Fprintf(out, "no recovery: %d alert(s) still firing\n", res.Alerts.Firing)
	}

	table := os.Stdout
	if *jsonOut || pl.Registry != nil {
		table = os.Stderr
	}
	fmt.Fprintln(table)
	freshness.RenderCoverage(table, res.Coverage)
	fmt.Fprintln(table)
	freshness.RenderAlerts(table, res.Alerts)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Coverage freshness.Coverage       `json:"coverage"`
			Alerts   freshness.AlertsSnapshot `json:"alerts"`
		}{res.Coverage, res.Alerts})
	}
	return nil
}
