package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a deterministic registry covering every exposition
// shape: labelled counters sharing a family, a bare gauge, a histogram
// with finite and overflow observations, and a lazy func metric.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("pera_packets_total", L("switch", "sw1")).Add(5)
	reg.Counter("pera_packets_total", L("switch", "sw2")).Add(7)
	reg.Gauge("pera_pool_queue_depth").Set(3)
	h := reg.Histogram("pera_sign_seconds", []float64{0.25, 1})
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)
	reg.RegisterFunc("pera_trace_sample_every", KindGauge, func() float64 { return 4 })
	return reg
}

const goldenProm = `# TYPE pera_packets_total counter
pera_packets_total{switch="sw1"} 5
pera_packets_total{switch="sw2"} 7
# TYPE pera_pool_queue_depth gauge
pera_pool_queue_depth 3
# TYPE pera_sign_seconds histogram
pera_sign_seconds_bucket{le="0.25"} 1
pera_sign_seconds_bucket{le="1"} 2
pera_sign_seconds_bucket{le="+Inf"} 3
pera_sign_seconds_sum 5.5625
pera_sign_seconds_count 3
# TYPE pera_trace_sample_every gauge
pera_trace_sample_every 4
`

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenProm {
		t.Fatalf("Prometheus text drifted from golden.\n--- got ---\n%s--- want ---\n%s", b.String(), goldenProm)
	}
}

// TestWritePrometheusHostileLabels pins the 0.0.4 escaping rules against
// a switch named by an adversary: backslash, double quote and newline
// must be escaped, while tabs and multi-byte UTF-8 must pass through raw
// (Go's %q would rewrite them into escapes scrapers reject).
func TestWritePrometheusHostileLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pera_packets_total", L("switch", "sw\\1\"evil\"\nnext")).Add(1)
	reg.Counter("pera_packets_total", L("switch", "tab\there·é")).Add(2)
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE pera_packets_total counter
pera_packets_total{switch="sw\\1\"evil\"\nnext"} 1
pera_packets_total{switch="tab	here·é"} 2
`
	if b.String() != want {
		t.Fatalf("hostile label escaping drifted.\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestPromEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"line\nbreak", `line\nbreak`},
		{"tab\tstays", "tab\tstays"},
		{"utf8 é漢", "utf8 é漢"},
		{"", ""},
	}
	for _, c := range cases {
		if got := promEscape(c.in); got != c.want {
			t.Errorf("promEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	if v := snap.Value("pera_packets_total", L("switch", "sw2")); v != 7 {
		t.Fatalf("round-tripped counter = %v, want 7", v)
	}
	m, ok := snap.Get("pera_sign_seconds")
	if !ok || m.Hist == nil {
		t.Fatal("round-tripped histogram missing")
	}
	if m.Hist.Count != 3 || m.Hist.Sum != 5.5625 {
		t.Fatalf("round-tripped histogram count=%d sum=%v", m.Hist.Count, m.Hist.Sum)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{5, "5"},
		{1234567, "1234567"},
		{0.25, "0.25"},
		{5.5625, "5.5625"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := goldenRegistry()
	tr := NewFlowTracer(16)
	tr.RecordChild(SpanContext{}, "f1", "sw1", StageSign, time.Time{}, 0, "")
	srv, err := Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Fatalf("/metrics content-type %q", ctype)
	}
	if body != goldenProm {
		t.Fatalf("/metrics body drifted from golden:\n%s", body)
	}

	code, ctype, body = get("/metrics.json")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/metrics.json status %d type %q", code, ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}

	code, _, body = get("/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var dump struct {
		Recorded uint64 `json:"recorded_total"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if dump.Recorded != 1 || len(dump.Spans) != 1 || dump.Spans[0].Flow != "f1" {
		t.Fatalf("/trace dump = %+v", dump)
	}

	if code, _, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
}

func TestServeNoTracer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace without tracer: status %d, want 404", resp.StatusCode)
	}
}
