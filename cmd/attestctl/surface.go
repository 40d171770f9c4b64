package main

// Every live verb reads a process's JSON surfaces through fleetscope's
// reader: a per-request timeout, one retry on a transport error, and a
// 404 reported as "not served". A stalled daemon therefore ends a verb
// with an error instead of hanging it. The verbs share one refresh loop
// and one JSON dump.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pera/internal/fleetscope"
	"pera/internal/freshness"
	"pera/internal/observatory"
)

// client reads every live surface, with fleetscope's default timeout.
var client = fleetscope.NewClient(0)

// get fetches the JSON surface at base+path into out.
func get(base, path string, out any) error {
	return client.GetJSON(context.Background(), strings.TrimSuffix(base, "/"), path, out)
}

// surface returns a fetch of the JSON surface at base+path.
func surface[T any](base, path string) func() (T, error) {
	return func() (v T, err error) { return v, get(base, path, &v) }
}

// printJSON writes v as indented JSON: the -json output of every verb.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// show fetches a view and renders it n times (0 = until interrupted),
// every interval, or with jsonOut prints it once as JSON.
func show[T any](fetch func() (T, error), jsonOut bool, n int, interval time.Duration, render func(io.Writer, T)) {
	if jsonOut {
		n, render = 1, func(_ io.Writer, v T) { printJSON(v) }
	}
	refresh(n, interval, func() error {
		v, err := fetch()
		if err != nil {
			return err
		}
		render(os.Stdout, v)
		return nil
	})
}

// refresh runs render n times (0 = until interrupted), clearing the
// screen between frames and waiting interval after each. An error ends
// the process.
func refresh(n int, interval time.Duration, render func() error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for i := 1; ; i++ {
		if i > 1 {
			// ANSI clear+home, so the view refreshes in place like top.
			fmt.Print("\033[H\033[2J")
		}
		if err := render(); err != nil {
			fatal("%v", err)
		}
		if i == n {
			return
		}
		select {
		case <-sig:
			return
		case <-time.After(interval):
		}
	}
}

// frames is the frame count of a verb with a -watch flag.
func frames(watch bool) int {
	if watch {
		return 0
	}
	return 1
}

// runObserve dispatches the observatory subcommands: `attestctl top`
// (live refreshing place/link health) and `attestctl paths` (recent
// end-to-end traces with per-hop timing bars). Both read the collector
// snapshot a `perasim -observe -telemetry <addr>` run serves at
// /observatory.json.
func runObserve(verb string, args []string) {
	fs := flag.NewFlagSet("attestctl "+verb, flag.ExitOnError)
	collectorURL := fs.String("collector", "http://127.0.0.1:9464", "base URL of the telemetry server hosting /observatory.json")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval for top")
	iterations := fs.Int("n", 0, "top: stop after N refreshes (0 = until interrupted); paths: traces to print (0 = all retained)")
	jsonOut := fs.Bool("json", false, "dump the raw snapshot JSON once and exit")
	fs.Parse(args)

	snapshot := surface[observatory.Snapshot](*collectorURL, observatory.SnapshotPath)
	if verb == "paths" {
		show(snapshot, *jsonOut, 1, 0, func(w io.Writer, s observatory.Snapshot) {
			observatory.RenderPaths(w, s, *iterations)
		})
		return
	}
	show(snapshot, *jsonOut, *iterations, *interval, observatory.RenderTop)
}

// runFreshness dispatches the trust-decay subcommands: `attestctl
// coverage` (the freshness coverage map — which places are fresh, stale,
// lapsed or never attested against the staleness budget) and `attestctl
// alerts` (the watchdog's alert ring and probe tallies). Both read the
// JSON surfaces a `perasim -slo -telemetry <addr>` run serves at
// /coverage.json and /alerts.json.
func runFreshness(verb string, args []string) {
	fs := flag.NewFlagSet("attestctl "+verb, flag.ExitOnError)
	collectorURL := fs.String("collector", "http://127.0.0.1:9464", "base URL of the telemetry server hosting /coverage.json and /alerts.json")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval with -watch")
	watch := fs.Bool("watch", false, "refresh in place until interrupted")
	jsonOut := fs.Bool("json", false, "dump the raw snapshot JSON once and exit")
	fs.Parse(args)

	if verb == "alerts" {
		show(surface[freshness.AlertsSnapshot](*collectorURL, freshness.AlertsPath),
			*jsonOut, frames(*watch), *interval, freshness.RenderAlerts)
		return
	}
	show(surface[freshness.Coverage](*collectorURL, freshness.CoveragePath),
		*jsonOut, frames(*watch), *interval, freshness.RenderCoverage)
}
