package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent names the
// enclosing span of the same request ("" for the request's root span).
// Start and End are nanoseconds since the tracer was made, read from the
// monotonic clock.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spansPerRequest bounds the spans one request records: at most 12 on the
// in-process workloads, 6 on rats_tcp.
const spansPerRequest = 16

// tracer keeps the traced phase's spans in memory. A nil tracer records
// nothing and reads no clock, so untraced phases pay one nil check per
// call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer with room for n spans, so that growing the
// span list does not stall the traced phase.
func newTracer(n int) *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, n)} }

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) span(req uint64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes derives the per-layer timings from the spans. Names that
// the workload never called are absent from the result.
func (t *tracer) layerTimes() (map[string]float64, error) {
	byName := map[string][]float64{}
	path := map[uint64]float64{}     // per request: time in the switch path
	children := map[uint64]float64{} // per request: time in its direct child spans
	requests := map[uint64]float64{} // per request: due time (or issue) → verdict
	for _, s := range t.spans {
		us := float64(s.End-s.Start) / 1e3
		if s.Name == "request" {
			requests[s.Req] = us
			continue
		}
		byName[s.Name] = append(byName[s.Name], us)
		if s.Parent == "request" {
			children[s.Req] += us
		}
		if strings.HasPrefix(s.Name, "pera.hop.") || strings.HasPrefix(s.Name, "netsim.") {
			path[s.Req] += us
		}
	}
	if len(requests) == 0 {
		return nil, fmt.Errorf("traced phase recorded no requests")
	}
	m := map[string]float64{}
	p50 := func(metric, name string) {
		if xs := byName[name]; len(xs) > 0 {
			m[metric] = percentile(xs, 0.50)
		}
	}
	p50("usecases.compile_us", "usecases.compile")
	p50("pisa.frame_us", "pisa.frame")
	p50("pera.wrap_us", "pera.wrap")
	p50("pera.unwrap_us", "pera.unwrap")
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		p50("pera.hop_us."+sw, "pera.hop."+sw)
	}
	p50("netsim.dpi_us", "netsim.dpi")
	p50("appraiser.verdict_us", "appraiser.verdict")
	if xs := byName["appraiser.verdict"]; len(xs) > 0 {
		m["appraiser.verdict_p99_us"] = percentile(xs, 0.99)
	}
	if xs := byName["appraiser.submit"]; len(xs) > 0 {
		m["appraiser.submit_block_us"] = mean(xs)
	}
	p50("rats.challenge_us", "rats.challenge")
	p50("rats.appraise_us", "rats.appraise")
	if xs := byName["rats.appraise"]; len(xs) > 0 {
		m["rats.appraise_p99_us"] = percentile(xs, 0.99)
	}
	if len(path) > 0 {
		m["pera.path_p99_us"] = percentile(values(path), 0.99)
	}
	var covered, total float64
	for req, us := range requests {
		total += us
		covered += children[req]
	}
	m["trace.coverage"] = ratio(covered, total)
	return m, nil
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
