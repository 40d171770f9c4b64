package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// percentile returns the nearest-rank p-quantile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns q1, the median and q3 by the method of Python's
// statistics.quantiles(xs, n=4), the one the benchmark's spread check
// uses. xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// childArgs are the flags a spawned single-workload run gets.
func (o options) childArgs(workload string, seed uint64) []string {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.trace {
		args = append(args, "-trace", "1")
		if o.traceOut != "" {
			args = append(args, "-trace-out", fmt.Sprintf("%s.%s.%d.jsonl", o.traceOut, workload, seed))
		}
	}
	if o.workdir != "" {
		args = append(args, "-workdir", o.workdir)
	}
	return args
}

// spawn runs one workload in a child process of this binary, so every run
// starts from a fresh heap, and returns its result line. The child's
// report goes to stderr.
func spawn(o options, workload string, seed uint64, stderr io.Writer) (*output, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, o.childArgs(workload, seed)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	runErr := cmd.Run()
	res, err := lastResult(&stdout)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return res, nil
}

func lastResult(r io.Reader) (*output, error) {
	var last []byte
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, errors.New("no result line")
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &out, nil
}

func (o options) selected() []string {
	if o.workload == "all" {
		return workloadNames()
	}
	return []string{o.workload}
}

// runSet holds repeated runs: workload → metric → values, one per run.
type runSet struct {
	Workloads map[string]map[string]*series `json:"workloads"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (s *runSet) add(workload string, res *output) {
	ms := s.Workloads[workload]
	if ms == nil {
		ms = map[string]*series{}
		s.Workloads[workload] = ms
	}
	for name, m := range res.Metrics {
		if ms[name] == nil {
			ms[name] = &series{Unit: m.Unit}
		}
		ms[name].Values = append(ms[name].Values, m.Value)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes one row per workload and metric; with spread it adds the
// quartiles and the interquartile range as a share of the median.
func (s *runSet) print(w io.Writer, spread bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if spread {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tiqr/median\truns")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue")
	}
	for _, wl := range sortedKeys(s.Workloads) {
		ms := s.Workloads[wl]
		for _, name := range sortedKeys(ms) {
			sr := ms[name]
			vals := append([]float64(nil), sr.Values...)
			q1, q2, q3 := quartiles(vals)
			if spread {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.2f%%\t%d\n", wl, name, sr.Unit, q2, q1, q3, 100*ratio(q3-q1, math.Abs(q2)), len(vals))
			} else {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\n", wl, name, sr.Unit, q2)
			}
		}
	}
	tw.Flush()
}

// runMany runs each selected workload n times, each run in a child
// process, with seeds o.seed, o.seed+1, ..., and prints every metric:
// its value after one run, its median, quartiles and spread after more.
func runMany(o options, n int, stdout, stderr io.Writer) int {
	set := runSet{Workloads: map[string]map[string]*series{}}
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range o.selected() {
			seed := o.seed + uint64(i)
			res, err := spawn(o, w, seed, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "perabench:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "perabench: %s seed %d: incorrect run (%d of %d failed)\n", w, seed, res.Failed, res.Attempted)
				code = 1
			}
			set.add(w, res)
		}
	}
	set.print(stdout, n > 1)
	if o.out != "" {
		data, err := json.MarshalIndent(&set, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perabench:", err)
			return 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every workload and end-to-end metric, the
// change of the median from base to next against the metric's bound. A
// change is "unresolved" when either side's interquartile range is wider
// than the bound: the runs cannot tell it from noise. It exits 1 when a
// resolved change is worse than its bound.
func compareFiles(benchPath, basePath, nextPath string, stdout, stderr io.Writer) int {
	var bench benchmarkFile
	var base, next runSet
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bench}, {basePath, &base}, {nextPath, &next}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "perabench:", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tdelta\tbound\tverdict")
	regressions := 0
	for _, wl := range sortedKeys(base.Workloads) {
		for _, m := range bench.EndToEnd {
			b, n := base.Workloads[wl][m.Name], next.Workloads[wl][m.Name]
			if b == nil || n == nil {
				continue
			}
			bq1, bmed, bq3 := quartiles(append([]float64(nil), b.Values...))
			nq1, nmed, nq3 := quartiles(append([]float64(nil), n.Values...))
			delta := ratio(nmed-bmed, math.Abs(bmed))
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case ratio(bq3-bq1, math.Abs(bmed)) > m.Bound || ratio(nq3-nq1, math.Abs(nmed)) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.2f%%\t%.0f%%\t%s\n", wl, m.Name, bmed, nmed, 100*delta, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if regressions > 0 {
		return 1
	}
	return 0
}
