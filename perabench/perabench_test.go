package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload for a few hundred requests with
// the traced phase on and checks the oracle, the count cross-check, the
// metrics and the result line.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(options{workload: name, seed: 1, seconds: 0.2, setups: 1, trace: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.crossCheck != nil {
				t.Errorf("count cross-check: %v", res.crossCheck)
			}
			if res.attempted() == 0 || res.failed() != 0 {
				t.Errorf("%d of %d requests failed", res.failed(), res.attempted())
			}
			if ran, caught := res.probes(); ran == 0 || caught != ran {
				t.Errorf("probes rejected %d of %d", caught, ran)
			}
			for _, trace := range []bool{false, true} {
				out := res.output(trace)
				for name, m := range out.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
				line, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				var back output
				if err := json.Unmarshal(line, &back); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(back, out) {
					t.Errorf("result line does not round-trip:\n%s\n%+v", line, back)
				}
			}
			for _, d := range append(append(append([]metricDef(nil), endToEnd...), endToEndDetail...), perLayer...) {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric names and
// units in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	path, err := findBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	if err := readJSON(path, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("%s: BENCHMARK.json has %v, program has %v", c.what, got, c.defs)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareFlagsRegressionsAndNoise(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, data string) {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(bench, `{"end_to_end": [
		{"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "verdict_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}`)
	set := func(rate, p50 string) string {
		return `{"workloads": {"w": {
			"verdicts_per_s": {"unit": "1/s", "values": ` + rate + `},
			"verdict_p50_us": {"unit": "us", "values": ` + p50 + `}}}}`
	}
	base, next := filepath.Join(dir, "base.json"), filepath.Join(dir, "new.json")
	write(base, set("[100, 101, 99, 100, 100]", "[10, 10, 10, 10, 10]"))
	write(next, set("[80, 81, 79, 80, 80]", "[5, 20, 9, 30, 2]"))
	var out, errOut bytes.Buffer
	if code := compareFiles(bench, base, next, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"verdicts_per_s", "REGRESSION", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
