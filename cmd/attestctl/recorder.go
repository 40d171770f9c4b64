package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"pera/internal/fleetscope"
	"pera/internal/recorder"
)

// parseMixed parses fs over args while accepting flags after positional
// arguments (the flag package stops at the first non-flag, which makes
// `attestctl history <metric> -collector URL` silently ignore the URL).
// Returns the positional arguments in order.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args) // ExitOnError: a bad flag never returns
		args = fs.Args()
		if len(args) == 0 {
			return pos
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

func posArg(pos []string, i int) string {
	if i < len(pos) {
		return pos[i]
	}
	return ""
}

// runHistory renders the flight recorder's metric history: `attestctl
// history <metric>` fetches /history.json from a -recorder-enabled
// process and prints a sparkline (or -table rows); without a metric it
// lists every stored series.
func runHistory(args []string) {
	fs := flag.NewFlagSet("attestctl history", flag.ExitOnError)
	collectorURL := fs.String("collector", "http://127.0.0.1:9464", "base URL of the telemetry server hosting /history.json")
	since := fs.String("since", "", "lookback window as a duration (5m) or unix nanoseconds")
	step := fs.String("step", "", "resolution as a duration; >= the coarse step (10s) selects the 1h ring")
	table := fs.Bool("table", false, "print raw points instead of a sparkline")
	jsonOut := fs.Bool("json", false, "dump the raw history JSON and exit")
	width := fs.Int("width", 60, "sparkline width in characters")
	pos := parseMixed(fs, args)
	metric := posArg(pos, 0)

	q := url.Values{}
	for key, v := range map[string]string{"metric": metric, "since": *since, "step": *step} {
		if v != "" {
			q.Set(key, v)
		}
	}
	path := recorder.HistoryPath
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var raw json.RawMessage
	switch err := get(*collectorURL, path, &raw); {
	case metric != "" && fleetscope.IsNotServed(err):
		// The recorder answers 404 for a metric it does not hold.
		fatal("no history for metric %q (is the process running with -recorder?)", metric)
	case err != nil:
		fatal("%v", err)
	}
	if *jsonOut {
		printJSON(raw)
		return
	}
	if metric == "" {
		var idx struct {
			Series []recorder.SeriesInfo `json:"series"`
		}
		if err := json.Unmarshal(raw, &idx); err != nil {
			fatal("%v", err)
		}
		if len(idx.Series) == 0 {
			fmt.Println("no series recorded")
			return
		}
		fmt.Printf("%-52s %-10s %7s %14s\n", "SERIES", "KIND", "POINTS", "LAST")
		for _, s := range idx.Series {
			fmt.Printf("%-52s %-10s %7d %14g\n", s.ID, s.Kind, s.Points, s.Last)
		}
		return
	}
	var out struct {
		Series []recorder.Series `json:"series"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		fatal("%v", err)
	}
	for _, s := range out.Series {
		if *table {
			recorder.FormatSeriesTable(os.Stdout, s)
		} else {
			recorder.FormatSeries(os.Stdout, s, *width)
		}
	}
}

// runIncident reads incident bundles offline: `attestctl incident list
// -dir <dir>` enumerates them, `show` prints a bundle's manifest (and
// -verify re-checks every digest plus the ledger tail's HMAC chain),
// `export` unpacks a bundle's files for ad-hoc tooling. No live process
// is needed — the bundle IS the incident.
func runIncident(args []string) {
	if len(args) == 0 {
		fatal("usage: attestctl incident <list|show|export> [flags]")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "list":
		fs := flag.NewFlagSet("attestctl incident list", flag.ExitOnError)
		dir := fs.String("dir", "incidents", "bundle directory (the daemon's -recorder value)")
		jsonOut := fs.Bool("json", false, "machine-readable listing")
		fs.Parse(rest)
		infos := recorder.ListBundles(*dir)
		if *jsonOut {
			printJSON(infos)
			return
		}
		recorder.FormatBundleList(os.Stdout, infos)

	case "show":
		fs := flag.NewFlagSet("attestctl incident show", flag.ExitOnError)
		dir := fs.String("dir", "incidents", "bundle directory searched when the argument is an ID")
		verify := fs.Bool("verify", false, "re-verify file digests and the ledger tail chain")
		keyHex := fs.String("key", "", "ledger MAC key as hex (default: dev key)")
		file := fs.String("file", "", "print this archived file's contents instead of the manifest")
		pos := parseMixed(fs, rest)
		b := openBundleArg(posArg(pos, 0), *dir)
		if *file != "" {
			data, ok := b.Files[*file]
			if !ok {
				fatal("%s: no archived file %q", b.Path, *file)
			}
			os.Stdout.Write(data)
			return
		}
		recorder.FormatBundle(os.Stdout, b)
		if *verify {
			n, err := b.Verify(resolveKey(*keyHex, ""))
			if err != nil {
				fatal("verify: %v", err)
			}
			fmt.Printf("verify   OK — all file digests match; ledger tail chain intact (%d records)\n", n)
		}

	case "export":
		fs := flag.NewFlagSet("attestctl incident export", flag.ExitOnError)
		dir := fs.String("dir", "incidents", "bundle directory searched when the argument is an ID")
		out := fs.String("out", "", "directory to unpack into (default: bundle name without .tar.gz)")
		pos := parseMixed(fs, rest)
		b := openBundleArg(posArg(pos, 0), *dir)
		dest := *out
		if dest == "" {
			dest = strings.TrimSuffix(filepath.Base(b.Path), ".tar.gz")
		}
		if err := os.MkdirAll(dest, 0o755); err != nil {
			fatal("%v", err)
		}
		man, _ := json.MarshalIndent(b.Manifest, "", " ")
		if err := os.WriteFile(filepath.Join(dest, recorder.ManifestName), man, 0o644); err != nil {
			fatal("%v", err)
		}
		for name, data := range b.Files {
			if err := os.WriteFile(filepath.Join(dest, filepath.Base(name)), data, 0o644); err != nil {
				fatal("%v", err)
			}
		}
		fmt.Printf("exported %d files to %s/\n", len(b.Files)+1, dest)

	default:
		fatal("unknown incident subcommand %q (want list, show or export)", verb)
	}
}

// openBundleArg resolves a bundle argument — a path to a .tar.gz, or an
// ID (file-name hash fragment) looked up in dir — and opens it. An
// empty argument opens the newest bundle in dir.
func openBundleArg(arg, dir string) *recorder.Bundle {
	path := arg
	if arg == "" {
		infos := recorder.ListBundles(dir)
		if len(infos) == 0 {
			fatal("no incident bundles in %s", dir)
		}
		path = infos[0].Path
	} else if _, err := os.Stat(arg); err != nil {
		found := ""
		for _, bi := range recorder.ListBundles(dir) {
			if strings.HasPrefix(bi.ID, arg) {
				found = bi.Path
				break
			}
		}
		if found == "" {
			fatal("no bundle %q (not a file, and no ID match in %s)", arg, dir)
		}
		path = found
	}
	b, err := recorder.OpenBundle(path)
	if err != nil {
		fatal("%v", err)
	}
	return b
}
