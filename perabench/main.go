// Command perabench is the end-to-end and per-layer benchmark of the PERA
// reproduction. In the in-process workloads a packet enters sw1, crosses
// the full Fig. 3 pipeline at every hop (sw1 → sw2 → dpi → sw3) and leaves
// as a verdict at the appraiser; rats_tcp runs the Fig. 1 challenge and
// appraise exchange over loopback TCP. Every verdict is checked. See
// README.md for the metrics, the workloads and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const (
	warmupTime     = 2 * time.Second // closed-loop warm-up before measuring
	setupsPerSlice = 8               // set-ups timed before each pair of slices
)

// options are the settings of one invocation. The tests shorten warmup
// and setups to run each workload for a few hundred requests.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // measured time: half saturation, half open loop
	warmup   time.Duration
	setups   int    // set-ups timed before each pair of slices
	trace    bool   // traced run: per-layer metrics instead of end-to-end
	traceOut string // spans file of the traced run
	workdir  string // scratch directory (audit ledger of uc1_observed)

	repeat  int    // runs per workload, with seeds seed, seed+1, ...
	out     string // where to save repeated runs for -compare
	compare bool   // compare two saved repeat files
}

func run(args []string, stdout, stderr io.Writer) int {
	o := options{warmup: warmupTime, setups: setupsPerSlice}
	var trace int
	fs := flag.NewFlagSet("perabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 28, "measured seconds per run: half saturation, half open loop")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced phase and reports the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced phase's spans to this JSONL file")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory (default: the system temp directory)")
	fs.IntVar(&o.repeat, "repeat", 0, "run each workload N times and print median, q1 and q3")
	fs.StringVar(&o.out, "out", "", "save the runs of -repeat or -workload all to this file for -compare")
	fs.BoolVar(&o.compare, "compare", false, "compare two -repeat files: perabench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if err := o.validate(fs.NArg()); err != nil {
		fmt.Fprintln(stderr, "perabench:", err)
		return 2
	}
	switch {
	case o.compare:
		bench, err := findBenchmark()
		if err != nil {
			fmt.Fprintln(stderr, "perabench:", err)
			return 2
		}
		return compareFiles(bench, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.repeat > 0 || o.workload == "all":
		return runMany(o, max(o.repeat, 1), stdout, stderr)
	default:
		return runOne(o, stdout, stderr)
	}
}

func (o options) validate(nargs int) error {
	if o.compare {
		if nargs != 2 {
			return errors.New("-compare needs two files: base.json new.json")
		}
		return nil
	}
	if nargs != 0 {
		return errors.New("unexpected arguments")
	}
	if o.workload != "all" && lookupWorkload(o.workload) == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	return nil
}

// findBenchmark returns the path of BENCHMARK.json, which holds the
// metric bounds: in the working directory or the nearest parent that has
// one, so both the repository root and perabench/ find it.
func findBenchmark() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil {
			return path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// output is the result line: the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(o options, stdout, stderr io.Writer) int {
	fmt.Fprintf(stderr, "perabench %s seed=%d trace=%v go=%s nproc=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perabench:", err)
		return 1
	}
	res.report(stderr, o.trace)
	line, err := json.Marshal(res.output(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perabench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}
