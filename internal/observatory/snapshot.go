package observatory

import (
	"encoding/json"
	"net/http"
	"slices"

	"pera/internal/telemetry"
)

// PlaceHealth is one place's row in a snapshot.
type PlaceHealth struct {
	Place        string  `json:"place"`
	Spans        uint64  `json:"spans"`
	LatP50NS     float64 `json:"lat_p50_ns"`
	LatP95NS     float64 `json:"lat_p95_ns"`
	LatP99NS     float64 `json:"lat_p99_ns"`
	EvBytes      uint64  `json:"ev_bytes"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	GuardRejects uint64  `json:"guard_rejects"`
	SampleSkips  uint64  `json:"sample_skips"`

	// From periodic stats pushes (cumulative switch counters).
	Packets        uint64  `json:"packets"`
	VerifyOps      uint64  `json:"verify_ops"`
	VerifyFails    uint64  `json:"verify_fails"`
	VerifyFailRate float64 `json:"verify_fail_rate"`
	AuditRecords   uint64  `json:"audit_records"`
	AuditDropped   uint64  `json:"audit_dropped"`
	MemoHits       uint64  `json:"memo_hits"`
	MemoMisses     uint64  `json:"memo_misses"`
	MemoHitRate    float64 `json:"memo_hit_rate"`

	// From appraisal attribution (the anomaly model's inputs).
	Observed     uint64  `json:"observed"`
	Fails        uint64  `json:"fails"`
	WindowRate   float64 `json:"window_fail_rate"`
	BaselineRate float64 `json:"baseline_fail_rate"`
	Anomalous    bool    `json:"anomalous"`
	FlaggedAt    uint64  `json:"flagged_at,omitempty"` // verdict count
}

// LinkHealth is one directed link's row in a snapshot.
type LinkHealth struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Frames  uint64 `json:"frames"`
	EvBytes uint64 `json:"ev_bytes"`
}

// Snapshot is the collector's full JSON surface — what /observatory.json
// serves and what attestctl top/paths render.
type Snapshot struct {
	Collector    string        `json:"collector"`
	Frames       uint64        `json:"frames"`
	Traces       uint64        `json:"traces"`
	Verdicts     uint64        `json:"verdicts"`
	Pushes       uint64        `json:"pushes"`
	Places       []PlaceHealth `json:"places"`
	Links        []LinkHealth  `json:"links"`
	Paths        []PathTrace   `json:"paths"` // newest first
	Localization *Localization `json:"localization,omitempty"`
}

// MaxSnapshotPaths bounds the traces serialized per snapshot; the ring
// retains more for in-process consumers.
const MaxSnapshotPaths = 32

// Snapshot renders the collector's current state. Places and links
// appear in first-seen order, which for a single path is path order.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Collector: c.name,
		Frames:    c.seq,
		Traces:    c.seq,
		Verdicts:  c.verdicts,
		Pushes:    c.pushes,
	}
	for _, name := range c.placeSeq {
		p := c.places[name]
		row := PlaceHealth{
			Place:        name,
			Spans:        p.spans,
			EvBytes:      p.evBytes,
			CacheHits:    p.cacheHits,
			CacheMisses:  p.cacheMisses,
			GuardRejects: p.guardRejects,
			SampleSkips:  p.sampleSkips,
			AuditRecords: p.auditRecords,
			AuditDropped: p.auditDropped,
			MemoHits:     p.memoHits,
			MemoMisses:   p.memoMisses,
			Observed:     p.obs,
			Fails:        p.fails,
			WindowRate:   p.windowRate(),
			BaselineRate: p.baselineRate(),
			Anomalous:    p.flagged,
			FlaggedAt:    p.flaggedAt,
		}
		row.LatP50NS, row.LatP95NS, row.LatP99NS = p.lat.quantiles()
		if t := p.cacheHits + p.cacheMisses; t > 0 {
			row.CacheHitRate = float64(p.cacheHits) / float64(t)
		}
		if t := p.memoHits + p.memoMisses; t > 0 {
			row.MemoHitRate = float64(p.memoHits) / float64(t)
		}
		if p.statsSet {
			row.Packets = p.stats.Packets
			row.VerifyOps = p.stats.VerifyOps
			row.VerifyFails = p.stats.VerifyFails
			if p.stats.VerifyOps > 0 {
				row.VerifyFailRate = float64(p.stats.VerifyFails) / float64(p.stats.VerifyOps)
			}
		}
		s.Places = append(s.Places, row)
	}
	for _, k := range c.linkSeq {
		l := c.links[k]
		s.Links = append(s.Links, LinkHealth{From: l.from, To: l.to, Frames: l.frames, EvBytes: l.evBytes})
	}
	// Newest-first traces, bounded.
	n := len(c.paths)
	for i := 0; i < n && len(s.Paths) < MaxSnapshotPaths; i++ {
		// Walk the ring backwards from the newest slot.
		pt := *c.paths[(c.pathHead+n-1-i)%n]
		pt.Hops = slices.Clone(pt.Hops) // the live trace may grow
		s.Paths = append(s.Paths, pt)
	}
	if c.loc != nil {
		l := *c.loc
		s.Localization = &l
	}
	return s
}

// Handler serves the snapshot as JSON.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Snapshot())
	})
}

// Endpoint mounts the collector's JSON on a telemetry server —
// `telemetry.Serve(addr, reg, tracer, collector.Endpoint())`.
func (c *Collector) Endpoint() telemetry.Endpoint {
	return telemetry.Endpoint{Path: SnapshotPath, Desc: "observatory snapshot (place health, path traces, localization)", Handler: c.Handler()}
}

// SnapshotPath is where a collector's JSON lives on a telemetry server.
const SnapshotPath = "/observatory.json"
