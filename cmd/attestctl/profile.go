package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pera/internal/profiler"
)

// runProfile dispatches the continuous-profiler subcommands (see
// docs/PROFILING.md):
//
//	attestctl profile top   -collector http://127.0.0.1:9464
//	attestctl profile top   -file cpu.pprof
//	attestctl profile diff  -collector http://127.0.0.1:9464
//	attestctl profile watch -collector http://127.0.0.1:9464
//
// `top` renders the stage-attributed CPU breakdown and the flat
// top-function table — live from a -profile process's /profile.json, or
// offline from a raw pprof artifact (an incident bundle's cpu.pprof)
// attributed by profiler.Summarize, the step the live profiler runs on
// each capture.
// `diff` renders the pinned-baseline comparison and any regression
// findings. `watch` refreshes `top` in place like top(1).
func runProfile(args []string) {
	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	switch sub {
	case "top", "diff", "watch":
	default:
		fmt.Fprintln(os.Stderr, "usage: attestctl profile top   [-collector URL | -file cpu.pprof] [-window 30s] [-json]")
		fmt.Fprintln(os.Stderr, "       attestctl profile diff  [-collector URL] [-json]")
		fmt.Fprintln(os.Stderr, "       attestctl profile watch [-collector URL] [-interval 2s]")
		os.Exit(2)
	}

	fs := flag.NewFlagSet("attestctl profile "+sub, flag.ExitOnError)
	collectorURL := fs.String("collector", "http://127.0.0.1:9464", "base URL of the telemetry server hosting /profile.json")
	file := fs.String("file", "", "decode a raw pprof artifact offline instead of scraping a live process (top only)")
	window := fs.Duration("window", 0, "aggregate capture windows over this lookback (0 = newest window only)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval with watch")
	jsonOut := fs.Bool("json", false, "dump the raw summary JSON once and exit")
	fs.Parse(args)

	if *file != "" {
		if sub != "top" {
			fatal("-file only applies to `profile top`")
		}
		show(func() (profiler.Summary, error) { return summarizeFile(*file) }, *jsonOut, 1, 0, renderProfileSummary)
		return
	}
	path := profiler.ProfilePath
	if *window > 0 {
		path += "?window=" + window.String()
	}
	render, n := renderProfileSummary, 1
	switch sub {
	case "diff":
		render = renderProfileDiff
	case "watch":
		n = 0
	}
	show(surface[profiler.Summary](*collectorURL, path), *jsonOut, n, *interval, render)
}

// summarizeFile attributes a raw pprof artifact on disk, such as an
// incident bundle's cpu.pprof, with the live profiler's own step.
func summarizeFile(path string) (profiler.Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return profiler.Summary{}, err
	}
	s, err := profiler.Summarize(data)
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	s.Service = path
	return s, nil
}

// renderProfileSummary writes the stage-attributed CPU breakdown.
func renderProfileSummary(w io.Writer, s profiler.Summary) {
	fmt.Fprintf(w, "profiler %s — %d captures, window %v, %d samples\n",
		s.Service, s.Captures, time.Duration(s.WindowNS).Round(time.Millisecond), s.Samples)
	if s.TotalSeconds == 0 {
		fmt.Fprintln(w, "no CPU samples captured yet")
		return
	}
	fmt.Fprintf(w, "cpu: %.3fs total, %.0f%% stage-labeled, hotspot %s (%.0f%%)\n",
		s.TotalSeconds, s.LabeledShare*100, s.Hotspot, s.HotspotShare*100)
	if len(s.Kinds) > 0 {
		fmt.Fprintf(w, "artifacts: %s (GET %s?kind=)\n", strings.Join(s.Kinds, ", "), profiler.ArtifactPath)
	}
	if len(s.Stages) > 0 {
		fmt.Fprintf(w, "\nstage attribution:\n")
		fmt.Fprintf(w, "  %-10s %-8s %9s %6s\n", "STAGE", "PLACE", "SECONDS", "SHARE")
		for _, st := range s.Stages {
			fmt.Fprintf(w, "  %-10s %-8s %8.3fs %5.0f%%\n", st.Stage, st.Place, st.Seconds, st.Share*100)
		}
	}
	if len(s.Top) > 0 {
		fmt.Fprintf(w, "\ntop functions (flat, by leaf):\n")
		for _, f := range s.Top {
			fmt.Fprintf(w, "  %8.3fs %5.0f%%  %s\n", f.Seconds, f.Share*100, f.Name)
		}
	}
	for _, f := range s.Regressions {
		fmt.Fprintf(w, "\nREGRESSION [%s] %s\n", f.Kind, f.Reason)
	}
}

// renderProfileDiff writes the pinned-baseline comparison.
func renderProfileDiff(w io.Writer, s profiler.Summary) {
	if !s.Baseline || s.Diff == nil {
		fmt.Fprintln(w, "no baseline pinned — start the daemon with -profile and let the first capture pin one")
		return
	}
	d := s.Diff
	fmt.Fprintf(w, "profiler %s — baseline %.3fs vs current %.3fs\n",
		s.Service, d.BaselineSeconds, d.CurrentSeconds)
	if len(d.Stages) > 0 {
		fmt.Fprintf(w, "\nstage share deltas (regressions first):\n")
		fmt.Fprintf(w, "  %-10s %-8s %6s %6s %7s\n", "STAGE", "PLACE", "BASE", "CUR", "DELTA")
		for _, sd := range d.Stages {
			fmt.Fprintf(w, "  %-10s %-8s %5.0f%% %5.0f%% %+6.0f pts\n",
				sd.Stage, sd.Place, sd.BaseShare*100, sd.CurShare*100, sd.Delta*100)
		}
	}
	n := len(d.Functions)
	if n > 8 {
		n = 8
	}
	if n > 0 {
		fmt.Fprintf(w, "\nfunction share deltas (top %d of %d):\n", n, len(d.Functions))
		for _, fd := range d.Functions[:n] {
			fmt.Fprintf(w, "  %5.0f%% -> %5.0f%% (%+5.0f pts)  %s\n",
				fd.BaseShare*100, fd.CurShare*100, fd.Delta*100, fd.Name)
		}
	}
	if len(d.Findings) == 0 {
		fmt.Fprintf(w, "\nno regressions against the baseline\n")
		return
	}
	fmt.Fprintf(w, "\nfindings (%d):\n", len(d.Findings))
	for _, f := range d.Findings {
		fmt.Fprintf(w, "  [%s] %s\n", f.Kind, f.Reason)
	}
}
