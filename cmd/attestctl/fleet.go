package main

// `attestctl fleet` — render the fleet-wide attestation view: merged
// trust map, per-target scrape health, fleet findings and the
// deduplicated alert feed.
//
// Two sources:
//
//	attestctl fleet status -fleet http://127.0.0.1:9470
//	    query a running fleetd's /fleet.json (the normal path: the
//	    daemon owns the scrape cadence and health states)
//
//	attestctl fleet status -endpoints http://127.0.0.1:9464,http://127.0.0.1:9465
//	    no daemon: scrape the endpoints once, in process, and render the
//	    merged view (health states are from this single round)
//
// Verbs: status (rollup + findings + alerts), top (trust map, worst
// first), targets (scrape health). All take -watch/-json/-interval.

import (
	"flag"
	"fmt"
	"time"

	"pera/internal/fleetscope"
)

func runFleet(args []string) {
	verb := "status"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		verb, args = args[0], args[1:]
	}
	switch verb {
	case "status", "top", "targets":
	default:
		fatal("unknown fleet verb %q (want status, top or targets)", verb)
	}

	fs := flag.NewFlagSet("attestctl fleet "+verb, flag.ExitOnError)
	fleetURL := fs.String("fleet", "", "base URL of a fleetd serving /fleet.json")
	endpoints := fs.String("endpoints", "", "comma-separated telemetry endpoints to scrape directly (no fleetd)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-target scrape timeout with -endpoints")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval with -watch")
	watch := fs.Bool("watch", false, "refresh in place until interrupted")
	jsonOut := fs.Bool("json", false, "dump the fleet view JSON once and exit")
	fs.Parse(args)
	if (*fleetURL == "") == (*endpoints == "") {
		fatal("fleet %s: need exactly one of -fleet or -endpoints", verb)
	}

	view := func() (fleetscope.FleetView, error) {
		if *endpoints != "" {
			return scrapeFleetView(*endpoints, *timeout)
		}
		var v fleetscope.FleetView
		bases := parseEndpoints(*fleetURL)
		if len(bases) != 1 {
			return v, fmt.Errorf("-fleet wants exactly one base URL, got %q", *fleetURL)
		}
		return v, get(bases[0], fleetscope.FleetPath, &v)
	}
	render := fleetscope.RenderStatus
	switch verb {
	case "top":
		render = fleetscope.RenderTrust
	case "targets":
		render = fleetscope.RenderTargets
	}
	show(view, *jsonOut, frames(*watch), *interval, render)
}

// scrapeFleetView runs one in-process scrape round over the endpoints
// and merges the result — fleet view without a fleetd.
func scrapeFleetView(endpoints string, timeout time.Duration) (fleetscope.FleetView, error) {
	targets, err := fleetscope.ParseTargets(endpoints)
	if err != nil {
		return fleetscope.FleetView{}, err
	}
	if len(targets) == 0 {
		return fleetscope.FleetView{}, fmt.Errorf("no endpoints in %q", endpoints)
	}
	agg := fleetscope.New(fleetscope.Config{Timeout: timeout}, targets)
	agg.ScrapeAll()
	return agg.View(), nil
}
