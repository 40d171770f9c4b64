package recorder

import (
	"strconv"
	"testing"
	"time"

	"pera/internal/telemetry"
)

func sec(n int) int64 { return int64(n) * int64(time.Second) }

func TestRingWraparound(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.push(Point{TS: sec(i), V: float64(i)})
	}
	if r.n != 4 {
		t.Fatalf("filled slots = %d, want 4", r.n)
	}
	pts := r.points(nil, 0)
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("point %d = %g, want %g (oldest-first after wrap)", i, p.V, want)
		}
	}
	// since filter trims from the old end.
	pts = r.points(nil, sec(8))
	if len(pts) != 2 || pts[0].V != 8 {
		t.Fatalf("since filter: got %v, want [8 9]", pts)
	}
	vals := r.lastN(nil, 3)
	if len(vals) != 3 || vals[0] != 7 || vals[2] != 9 {
		t.Fatalf("lastN = %v, want [7 8 9]", vals)
	}
	if p, ok := r.last(); !ok || p.V != 9 {
		t.Fatalf("last = %v,%v, want 9,true", p, ok)
	}
}

func TestStoreDualResolution(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("depth")
	s := NewStore()

	// 25 scrapes at 1s: fine keeps all 25, coarse keeps one per 10s bucket.
	for i := 0; i < 25; i++ {
		g.Set(float64(i))
		s.Observe(sec(i), reg.Snapshot())
	}
	fine := s.Query("depth", 0, false)
	if len(fine) != 1 || len(fine[0].Points) != 25 {
		t.Fatalf("fine query: %d series / %d points, want 1/25", len(fine), len(fine[0].Points))
	}
	coarse := s.Query("depth", 0, true)
	if len(coarse) != 1 || len(coarse[0].Points) != 3 {
		t.Fatalf("coarse query: %d points, want 3 (one per 10s bucket)", len(coarse[0].Points))
	}
	// The coarse ring records the first sample of each bucket.
	for i, want := range []float64{0, 10, 20} {
		if got := coarse[0].Points[i].V; got != want {
			t.Fatalf("coarse point %d = %g, want %g", i, got, want)
		}
	}
	if fine[0].Kind != "gauge" {
		t.Fatalf("kind = %q, want gauge", fine[0].Kind)
	}
}

func TestStoreHistogramDerivedSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_seconds", nil)
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	s := NewStore()
	s.Observe(sec(1), reg.Snapshot())

	for _, want := range []string{"lat_seconds_p50", "lat_seconds_p99", "lat_seconds_count"} {
		out := s.Query(want, 0, false)
		if len(out) != 1 {
			t.Fatalf("derived series %s: got %d series, want 1", want, len(out))
		}
	}
	cnt := s.Query("lat_seconds_count", 0, false)
	if cnt[0].Kind != "counter" {
		t.Fatalf("_count kind = %q, want counter (rate detector path)", cnt[0].Kind)
	}
	if got := cnt[0].Points[0].V; got != 100 {
		t.Fatalf("_count = %g, want 100", got)
	}
}

func TestStoreMaxSeriesDrop(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i := 0; i < maxSeries+2; i++ {
		reg.Counter("m", telemetry.L("i", strconv.Itoa(i))).Inc()
	}
	s := NewStore()
	s.Observe(sec(1), reg.Snapshot())

	_, _, dropped, nseries, _ := s.Stats()
	if nseries != maxSeries {
		t.Fatalf("series = %d, want %d (maxSeries cap)", nseries, maxSeries)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	// Existing series keep recording after the cap is hit.
	s.Observe(sec(2), reg.Snapshot())
	_, points, _, _, _ := s.Stats()
	if points != 2*maxSeries {
		t.Fatalf("points = %d, want %d (%d series × 2 scrapes)", points, 2*maxSeries, maxSeries)
	}
}

func TestStoreQueryByLabelVariantAndID(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("util", telemetry.L("place", "sw1")).Set(1)
	reg.Gauge("util", telemetry.L("place", "sw2")).Set(2)
	s := NewStore()
	s.Observe(sec(1), reg.Snapshot())

	// Bare name matches all label variants.
	if got := s.Query("util", 0, false); len(got) != 2 {
		t.Fatalf("bare-name query: %d series, want 2", len(got))
	}
	// Exact ID matches one, and carries the place attribution.
	one := s.Query(`util{place="sw2"}`, 0, false)
	if len(one) != 1 {
		t.Fatalf("exact-ID query: %d series, want 1", len(one))
	}
	if one[0].Place != "sw2" {
		t.Fatalf("place = %q, want sw2", one[0].Place)
	}
	if got := s.Query("nope", 0, false); len(got) != 0 {
		t.Fatalf("unknown metric: %d series, want 0", len(got))
	}
	// List is the sorted index.
	list := s.List()
	if len(list) != 2 || list[0].ID >= list[1].ID {
		t.Fatalf("List not sorted: %+v", list)
	}
	if list[1].Last != 2 {
		t.Fatalf("List last = %g, want 2", list[1].Last)
	}
}

func TestStoreFixedMemory(t *testing.T) {
	// The rings never grow: after filling, points stay bounded by slots.
	reg := telemetry.NewRegistry()
	g := reg.Gauge("bounded")
	s := NewStore()
	// One scrape a second, past the coarse ring's span.
	n := (coarseSlots + 10) * int(coarseStep/time.Second)
	for i := 0; i < n; i++ {
		g.Set(float64(i))
		s.Observe(sec(i), reg.Snapshot())
	}
	fine := s.Query("bounded", 0, false)
	if len(fine[0].Points) != fineSlots {
		t.Fatalf("fine points = %d, want %d", len(fine[0].Points), fineSlots)
	}
	coarse := s.Query("bounded", 0, true)
	if len(coarse[0].Points) != coarseSlots {
		t.Fatalf("coarse points = %d, want %d", len(coarse[0].Points), coarseSlots)
	}
	// Newest fine value survives; oldest were overwritten.
	last := fine[0].Points[len(fine[0].Points)-1]
	if last.V != float64(n-1) {
		t.Fatalf("newest fine value = %g, want %d", last.V, n-1)
	}
}

func TestSeriesID(t *testing.T) {
	if got := seriesID("m", nil); got != "m" {
		t.Fatalf("no labels: %q", got)
	}
	got := seriesID("m", []telemetry.Label{telemetry.L("a", "1"), telemetry.L("b", "2")})
	if got != `m{a="1",b="2"}` {
		t.Fatalf("labelled ID = %q", got)
	}
	if baseName(got) != "m" {
		t.Fatalf("baseName = %q", baseName(got))
	}
}
