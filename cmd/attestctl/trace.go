package main

// `attestctl trace` — fetch the span rings of one or more processes
// (attestd, appraised, perasim) over their /trace endpoints, merge them
// into the single logical trace the flow belongs to, and render the
// causal span tree with a critical-path latency breakdown.
//
//	attestctl trace -endpoints http://127.0.0.1:9464,http://127.0.0.1:9465 <flow|trace-id>
//
// The argument is either a 32-hex-char trace ID (as printed by a traced
// attestctl round or stamped into audit-ledger records) or a flow ID
// (nonce hex); flows map to trace IDs deterministically, so either
// names the same trace.

import (
	"flag"
	"fmt"
	"os"

	"pera/internal/telemetry"
)

func runTrace(args []string) {
	fs := flag.NewFlagSet("attestctl trace", flag.ExitOnError)
	endpoints := fs.String("endpoints", "http://127.0.0.1:9464", "comma-separated base URLs of /trace-serving telemetry servers")
	jsonOut := fs.Bool("json", false, "dump the merged spans as JSON instead of rendering the tree")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal("usage: attestctl trace [-endpoints url,url] <flow|trace-id>")
	}

	traceID := fs.Arg(0)
	if !isTraceID(traceID) {
		traceID = telemetry.TraceIDFromFlow(traceID)
	}

	var groups [][]telemetry.Span
	var fetched int
	for _, base := range parseEndpoints(*endpoints) {
		var dump struct {
			Spans []telemetry.Span `json:"spans"`
		}
		if err := get(base, "/trace?trace="+traceID, &dump); err != nil {
			fmt.Fprintf(os.Stderr, "attestctl: %s: %v (skipping)\n", base, err)
			continue
		}
		fetched++
		groups = append(groups, dump.Spans)
	}
	if fetched == 0 {
		fatal("no endpoint answered")
	}
	merged := telemetry.MergeSpans(groups...)
	if *jsonOut {
		printJSON(merged)
		return
	}
	if n := telemetry.RenderTrace(os.Stdout, merged); n > 0 {
		fmt.Printf("%d spans from %d endpoint(s)\n", n, fetched)
	} else {
		fmt.Printf("trace %s: no spans at %d endpoint(s) — unsampled flow, or rings have wrapped\n", traceID, fetched)
		os.Exit(1)
	}
}

func isTraceID(s string) bool {
	if len(s) != 32 {
		return false
	}
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}
