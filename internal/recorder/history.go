// Package recorder is the attestation flight recorder: a fixed-memory
// in-process metric history store, anomaly detectors running over it,
// and an incident bundler that snapshots every observability surface
// the repo has (metric history, sampled trace ring, observatory path
// traces, freshness coverage, the chain-verified audit-ledger tail,
// runtime profiles, config) into a content-addressed archive the moment
// something goes wrong.
//
// Every live surface built so far — /metrics, /observatory.json,
// /coverage.json, /trace — answers "what is happening now?". The
// recorder answers "what was happening when it broke?": by the time an
// operator reads an alert, the snapshot that explains it is gone. The
// flight recorder keeps a short dual-resolution history of every
// registered metric and, on an alert or anomaly, freezes the whole
// diagnostic state into a bundle that localizes the incident offline —
// no live process required (ISSUE 8; the ScaRR-style decoupling of
// capture from analysis).
package recorder

import (
	"sort"
	"strings"
	"sync"
	"time"

	"pera/internal/telemetry"
)

// Point is one sample in a metric history ring.
type Point struct {
	TS int64   `json:"ts_ns"` // unix nanoseconds at scrape
	V  float64 `json:"v"`
}

// ring is a fixed-capacity circular buffer of points. Memory is
// allocated once at construction; steady-state appends never allocate.
type ring struct {
	pts  []Point
	head int // next write slot
	n    int // filled slots
}

func newRing(capacity int) ring {
	if capacity < 1 {
		capacity = 1
	}
	return ring{pts: make([]Point, capacity)}
}

func (r *ring) push(p Point) {
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
	if r.n < len(r.pts) {
		r.n++
	}
}

// points appends samples with TS >= since, oldest first, onto dst.
func (r *ring) points(dst []Point, since int64) []Point {
	start := r.head - r.n
	if start < 0 {
		start += len(r.pts)
	}
	for i := 0; i < r.n; i++ {
		p := r.pts[(start+i)%len(r.pts)]
		if p.TS >= since {
			dst = append(dst, p)
		}
	}
	return dst
}

// lastN appends the newest n values (oldest first) onto dst.
func (r *ring) lastN(dst []float64, n int) []float64 {
	if n > r.n {
		n = r.n
	}
	start := r.head - n
	if start < 0 {
		start += len(r.pts)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.pts[(start+i)%len(r.pts)].V)
	}
	return dst
}

func (r *ring) last() (Point, bool) {
	if r.n == 0 {
		return Point{}, false
	}
	i := r.head - 1
	if i < 0 {
		i += len(r.pts)
	}
	return r.pts[i], true
}

// series is the history of one metric identity at both resolutions.
type series struct {
	id     string
	kind   telemetry.Kind
	place  string // place="..." label value when present (anomaly attribution)
	fine   ring
	coarse ring
	// coarseBucket is the last coarse-step bucket a sample was written
	// for, so the coarse ring gets exactly one point per step.
	coarseBucket int64
}

// The history store's shape: every series gets 1s×5min fine history
// and 10s×1h coarse history in a few KB.
const (
	fineSlots   = 300              // fine ring capacity: 5min at 1s
	coarseStep  = 10 * time.Second // coarse resolution
	coarseSlots = 360              // coarse ring capacity: 1h at 10s
	// maxSeries bounds total memory: once reached, newly appearing
	// metric identities are dropped and counted rather than grown.
	maxSeries = 512
)

// Store is the fixed-memory time-series store. One Observe call per
// scrape tick appends the registry snapshot into per-series rings.
// Histogram metrics expand into derived _p50/_p99/_count series so
// detectors and sparklines work over scalars uniformly.
type Store struct {
	mu      sync.RWMutex
	series  map[string]*series
	scrapes uint64
	points  uint64
	dropped uint64 // series beyond maxSeries
	lastNS  int64

	// scratch backs the per-append series-ID lookup: building the key in
	// a reused byte slice and indexing the map with string(scratch) keeps
	// the steady-state scrape free of per-metric ID allocations (the ID
	// string is materialized only when a series is first seen).
	scratch []byte
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{series: make(map[string]*series)}
}

// seriesID renders a metric identity as name{k="v",...} — the same
// shape the Prometheus exposition uses, so /history.json IDs match what
// operators see on /metrics.
func seriesID(name string, labels []telemetry.Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func placeOf(labels []telemetry.Label) string {
	for _, l := range labels {
		if l.Key == "place" {
			return l.Value
		}
	}
	return ""
}

// Observe appends one registry snapshot at nowNS. It holds the store
// lock for the whole walk; scrapes are ~1/s so contention with queries
// is negligible, and a single critical section means a query never
// observes a half-applied scrape.
func (s *Store) Observe(nowNS int64, snap telemetry.Snapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrapes++
	s.lastNS = nowNS
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		ls := m.LabelString()
		if m.Hist != nil {
			s.append(nowNS, m.Name, "_p50", ls, m.Labels, telemetry.KindGauge, m.Hist.P50)
			s.append(nowNS, m.Name, "_p99", ls, m.Labels, telemetry.KindGauge, m.Hist.P99)
			s.append(nowNS, m.Name, "_count", ls, m.Labels, telemetry.KindCounter, float64(m.Hist.Count))
			continue
		}
		s.append(nowNS, m.Name, "", ls, m.Labels, m.Kind, m.Value)
	}
}

// append records one sample for the series name+suffix+ls. The ID is
// assembled in the scratch buffer and looked up via the allocation-free
// map[string(bytes)] form; labels are consulted only on first sight.
func (s *Store) append(nowNS int64, name, suffix, ls string, labels []telemetry.Label, kind telemetry.Kind, v float64) {
	s.scratch = append(append(append(s.scratch[:0], name...), suffix...), ls...)
	sr := s.series[string(s.scratch)]
	if sr == nil {
		if len(s.series) >= maxSeries {
			s.dropped++
			return
		}
		id := string(s.scratch)
		sr = &series{
			id:           id,
			kind:         kind,
			place:        placeOf(labels),
			fine:         newRing(fineSlots),
			coarse:       newRing(coarseSlots),
			coarseBucket: -1,
		}
		s.series[id] = sr
	}
	p := Point{TS: nowNS, V: v}
	sr.fine.push(p)
	s.points++
	if bucket := nowNS / int64(coarseStep); bucket != sr.coarseBucket {
		sr.coarseBucket = bucket
		sr.coarse.push(p)
	}
}

// Series is one queried history: ID, kind and chronological points.
type Series struct {
	ID     string  `json:"id"`
	Kind   string  `json:"kind"`
	Place  string  `json:"place,omitempty"`
	Points []Point `json:"points"`
}

// SeriesInfo is the index row for one stored series.
type SeriesInfo struct {
	ID     string  `json:"id"`
	Kind   string  `json:"kind"`
	Points int     `json:"points"`
	Last   float64 `json:"last"`
}

// baseName strips the {labels} suffix off a series ID.
func baseName(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}

// Query returns the histories matching metric — an exact series ID, a
// bare metric name (all label variants), or "" (every series) — with
// points at or after since (0 = everything). coarse selects the 10s
// ring for long lookbacks.
func (s *Store) Query(metric string, since int64, coarse bool) []Series {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Series
	for id, sr := range s.series {
		if metric != "" && id != metric && baseName(id) != metric {
			continue
		}
		r := &sr.fine
		if coarse {
			r = &sr.coarse
		}
		out = append(out, Series{
			ID:     id,
			Kind:   sr.kind.String(),
			Place:  sr.place,
			Points: r.points(make([]Point, 0, r.n), since),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// List returns the index of all stored series, sorted by ID.
func (s *Store) List() []SeriesInfo {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SeriesInfo, 0, len(s.series))
	for id, sr := range s.series {
		info := SeriesInfo{ID: id, Kind: sr.kind.String(), Points: sr.fine.n}
		if p, ok := sr.fine.last(); ok {
			info.Last = p.V
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// window returns the newest n fine-ring values of one series (oldest
// first) plus its kind and place, for the anomaly detectors.
func (s *Store) window(dst []float64, id string, n int) ([]float64, telemetry.Kind, string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.series[id]
	if sr == nil {
		return dst, 0, "", false
	}
	return sr.fine.lastN(dst, n), sr.kind, sr.place, true
}

// matchIDs appends the IDs of series whose base name or full ID equals
// any of the given names.
func (s *Store) matchIDs(dst []string, names []string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id := range s.series {
		base := baseName(id)
		for _, w := range names {
			if id == w || base == w {
				dst = append(dst, id)
				break
			}
		}
	}
	sort.Strings(dst)
	return dst
}

// Stats reports store health for telemetry.
func (s *Store) Stats() (scrapes, points, dropped uint64, nseries int, lastNS int64) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scrapes, s.points, s.dropped, len(s.series), s.lastNS
}
