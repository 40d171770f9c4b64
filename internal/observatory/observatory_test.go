package observatory

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pera/internal/pera"
	"pera/internal/telemetry"
)

// feedVerdict feeds c one appraisal's end the way Appraiser.Subscribe
// delivers it: the appraise envelope with the verdict, its provenance
// and the signers the appraiser verified.
func feedVerdict(c *Collector, flow string, signers []string, pass bool, place, stage, reason string) {
	v := "FAIL"
	if pass {
		v = "PASS"
	}
	c.StageEnded(telemetry.StageEvent{
		Stage: telemetry.StageAppraise, Flow: flow, Verdict: v, Signers: signers,
		Prov: telemetry.Provenance{Place: place, Stage: stage, Reason: reason},
	})
}

// feedHop feeds c one in-band hop at place the way Switch.Subscribe
// delivers it: the envelope opens, a cache miss and a sign end inside
// it, and the envelope closes with the hop's time and evidence growth.
func feedHop(c *Collector, flow, place string, total time.Duration) {
	ev := func(s telemetry.Stage) telemetry.StageEvent {
		return telemetry.StageEvent{Stage: s, Place: place, Flow: flow}
	}
	open := ev(telemetry.StageHop)
	open.Note = pera.NoteInBand
	c.StageOpened(open)
	c.StageEnded(ev(telemetry.StageCacheMiss))
	sign := ev(telemetry.StageSign)
	sign.Dur = 100 * time.Microsecond
	c.StageEnded(sign)
	end := ev(telemetry.StageHop)
	end.Dur, end.EvBytes = total, 200
	c.StageEnded(end)
}

// feedPath feeds one frame's hops at places, in order.
func feedPath(c *Collector, flow string, places ...string) {
	for i, p := range places {
		feedHop(c, flow, p, time.Duration(i+1)*150*time.Microsecond)
	}
}

func TestCollectorReassemblesPaths(t *testing.T) {
	c := New("collector")
	feedPath(c, "f1", "sw1", "sw2", "sw3")
	feedPath(c, "f2", "sw1", "sw2", "sw3")
	s := c.Snapshot()
	if s.Traces != 2 || s.Frames != 2 || len(s.Paths) != 2 {
		t.Fatalf("traces: %d frames: %d paths: %d", s.Traces, s.Frames, len(s.Paths))
	}
	// Newest first.
	if s.Paths[0].Flow != "f2" || s.Paths[0].Truncated || s.Paths[1].Flow != "f1" {
		t.Fatalf("paths: %+v", s.Paths)
	}
	want := Hop{Place: "sw2", Flags: HopAttested, SignNS: 100_000, TotalNS: 300_000, EvBytes: 200, CacheMisses: 1}
	if got := s.Paths[0].Hops; len(got) != 3 || got[1] != want {
		t.Fatalf("f2 hops: %+v, want sw2's %+v", got, want)
	}
	if len(s.Places) != 3 || s.Places[0].Place != "sw1" || s.Places[2].Place != "sw3" {
		t.Fatalf("places: %+v", s.Places)
	}
	if s.Places[1].Spans != 2 || s.Places[1].LatP50NS == 0 {
		t.Fatalf("sw2 health: %+v", s.Places[1])
	}
	if len(s.Links) != 2 || s.Links[0].From != "sw1" || s.Links[0].To != "sw2" || s.Links[0].Frames != 2 {
		t.Fatalf("links: %+v", s.Links)
	}
}

func TestCollectorPathRingBounded(t *testing.T) {
	c := New("collector")
	const n = pathCapacity + 6
	for i := 0; i < n; i++ {
		feedPath(c, fmt.Sprintf("f%d", i), "sw1")
	}
	s := c.Snapshot()
	if s.Traces != n || len(c.paths) != pathCapacity {
		t.Fatalf("traces %d, retained %d", s.Traces, len(c.paths))
	}
	// The snapshot lists the newest first; the ring's oldest survivor
	// sits at its head.
	if s.Paths[0].Flow != fmt.Sprintf("f%d", n-1) || c.paths[c.pathHead].Flow != "f6" {
		t.Fatalf("ring order: %s .. %s", s.Paths[0].Flow, c.paths[c.pathHead].Flow)
	}
}

func TestVerdictJoinsTrace(t *testing.T) {
	c := New("collector")
	feedPath(c, "f1", "sw1", "sw2")
	feedVerdict(c, "f1", []string{"sw1", "sw2"}, false, "sw2", "golden", "measurement mismatch")
	s := c.Snapshot()
	pt := s.Paths[0]
	if pt.Verdict != "FAIL" || pt.FailPlace != "sw2" || pt.FailStage != "golden" {
		t.Fatalf("trace: %+v", pt)
	}
	// Both hops observed; only sw2 carries the failure.
	if s.Places[0].Observed != 1 || s.Places[0].Fails != 0 {
		t.Fatalf("sw1: %+v", s.Places[0])
	}
	if s.Places[1].Observed != 1 || s.Places[1].Fails != 1 {
		t.Fatalf("sw2: %+v", s.Places[1])
	}
}

// TestLocalizationFlagsCompromisedPlace drives the UC1 shape: a healthy
// baseline on every hop, then every appraisal fails with place
// attribution to one switch. The anomaly model must flag exactly that
// switch, within the window.
func TestLocalizationFlagsCompromisedPlace(t *testing.T) {
	c := New("collector")
	hops := []string{"sw1", "sw2", "sw3", "sw4"}
	flow := 0
	send := func(verdict bool, failPlace string) {
		flow++
		stage, reason := "accept", "ok"
		if !verdict {
			stage, reason = "golden", "measurement mismatch: "+failPlace+"/fwd_v1.p4"
		}
		feedVerdict(c, fmt.Sprintf("flow%d", flow), hops, verdict, failPlace, stage, reason)
	}
	for i := 0; i < baseline; i++ {
		send(true, "")
	}
	if c.Localized() != nil {
		t.Fatal("localized during healthy baseline")
	}
	var locAt int
	for i := 0; i < 32; i++ {
		send(false, "sw3")
		if c.Localized() != nil {
			locAt = i + 1
			break
		}
	}
	loc := c.Localized()
	if loc == nil {
		t.Fatal("compromise never localized")
	}
	if loc.Place != "sw3" {
		t.Fatalf("localized %q, want sw3", loc.Place)
	}
	if locAt > 8 {
		t.Fatalf("took %d failing packets to localize", locAt)
	}
	s := c.Snapshot()
	for _, p := range s.Places {
		if p.Place == "sw3" && !p.Anomalous {
			t.Fatal("sw3 not marked anomalous")
		}
		if p.Place != "sw3" && p.Anomalous {
			t.Fatalf("%s spuriously anomalous", p.Place)
		}
	}
}

func TestStatsAndHealthPushes(t *testing.T) {
	c := New("collector")
	c.IngestStats("sw1", pera.Stats{Packets: 100, VerifyOps: 80, VerifyFails: 8})
	c.IngestAudit("sw1", 500, 2)
	c.IngestMemo("sw1", 90, 10)
	s := c.Snapshot()
	p := s.Places[0]
	if p.Packets != 100 || p.VerifyFailRate != 0.1 {
		t.Fatalf("stats: %+v", p)
	}
	if p.AuditRecords != 500 || p.AuditDropped != 2 {
		t.Fatalf("audit: %+v", p)
	}
	if p.MemoHitRate != 0.9 {
		t.Fatalf("memo: %+v", p)
	}
	if s.Pushes != 3 {
		t.Fatalf("pushes: %d", s.Pushes)
	}
}

// TestRenderTopPushOnlyPlace: a place known only from memo and audit
// pushes gets no table row, whose columns it cannot fill, but one line
// under the table with its memo and audit health.
func TestRenderTopPushOnlyPlace(t *testing.T) {
	c := New("collector")
	feedPath(c, "f1", "sw1")
	c.IngestMemo("Appraiser", 90, 10)
	c.IngestAudit("Appraiser", 500, 2)
	var top strings.Builder
	RenderTop(&top, c.Snapshot())
	out := top.String()
	if !strings.Contains(out, "\nsw1 ") {
		t.Fatalf("no row for sw1:\n%s", out)
	}
	if strings.Contains(out, "\nAppraiser  ") {
		t.Fatalf("push-only place printed as a table row:\n%s", out)
	}
	const want = "\nAppraiser (pushes only): memo 90 hits, 10 misses; audit 500 records, 2 dropped\n"
	if !strings.Contains(out, want) {
		t.Fatalf("push-only line missing, want %q in:\n%s", want, out)
	}
}

func TestSnapshotHTTPAndRender(t *testing.T) {
	c := New("collector")
	feedPath(c, "f1", "sw1", "sw2")
	feedVerdict(c, "f1", []string{"sw1", "sw2"}, true, "", "accept", "ok")

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Collector != "collector" || len(s.Places) != 2 {
		t.Fatalf("snapshot over HTTP: %+v", s)
	}

	var top, paths strings.Builder
	RenderTop(&top, s)
	if !strings.Contains(top.String(), "sw1") || !strings.Contains(top.String(), "no anomaly localized") {
		t.Fatalf("top:\n%s", top.String())
	}
	RenderPaths(&paths, s, 5)
	if !strings.Contains(paths.String(), "PASS") || !strings.Contains(paths.String(), "sw2") {
		t.Fatalf("paths:\n%s", paths.String())
	}
}

// TestVerdictWithoutTrace: verdicts train their signers' windows with
// no hop seen at all, and a FAIL reaches the place its provenance
// names even when no verified signature is that place's.
func TestVerdictWithoutTrace(t *testing.T) {
	c := New("collector")
	for i := 0; i < baseline; i++ {
		feedVerdict(c, fmt.Sprintf("w%d", i), []string{"sw1"}, true, "", "accept", "ok")
	}
	for i := 0; i < baseline/2; i++ {
		feedVerdict(c, fmt.Sprintf("x%d", i), nil, false, "sw1", "golden", "mismatch")
	}
	if loc := c.Localized(); loc == nil || loc.Place != "sw1" {
		t.Fatalf("localization: %+v", loc)
	}
}

// TestCollectorHopFeed: the collector keys open hops by (place, flow),
// so interleaved flows each get their own rows; a stage outside an
// in-band hop (an attest round's, or one inside a hop over a frame
// without a PERA header) touches no row; and a hop at a place the
// flow's open trace already holds starts the flow's next trace.
func TestCollectorHopFeed(t *testing.T) {
	c := New("collector")
	ev := func(s telemetry.Stage, place, flow string) telemetry.StageEvent {
		return telemetry.StageEvent{Stage: s, Place: place, Flow: flow}
	}
	inBand := ev(telemetry.StageHop, "sw1", "a")
	inBand.Note = pera.NoteInBand
	c.StageOpened(inBand)
	inBand.Flow = "b"
	c.StageOpened(inBand)
	c.StageEnded(ev(telemetry.StageCacheHit, "sw1", "b"))
	c.StageEnded(ev(telemetry.StageGuardReject, "sw1", "a"))

	// An attest round and a header-less hop at the same place.
	c.StageOpened(ev(telemetry.StageAttest, "sw1", "c"))
	c.StageEnded(ev(telemetry.StageSign, "sw1", "c"))
	c.StageEnded(ev(telemetry.StageAttest, "sw1", "c"))
	c.StageOpened(ev(telemetry.StageHop, "sw1", "d"))
	c.StageEnded(ev(telemetry.StageSampleSkip, "sw1", "d"))
	c.StageEnded(ev(telemetry.StageHop, "sw1", "d"))

	c.StageEnded(ev(telemetry.StageHop, "sw1", "a"))
	c.StageEnded(ev(telemetry.StageHop, "sw1", "b"))
	feedPath(c, "a", "sw2", "sw1")

	s := c.Snapshot()
	var got []string
	for _, pt := range s.Paths {
		line := pt.Flow + ":"
		for _, h := range pt.Hops {
			line += fmt.Sprintf(" %s/%d/%d/%d/%d", h.Place, h.Flags, h.CacheHits, h.GuardRejects, h.SampleSkips)
		}
		got = append(got, line)
	}
	want := []string{"a: sw1/2/0/0/0", "b: sw1/2/1/0/0", "a: sw1/0/0/1/0 sw2/2/0/0/0"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("traces, newest first:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if s.Frames != 3 || len(s.Places) != 2 || s.Places[0].Spans != 3 {
		t.Fatalf("frames %d, places %+v", s.Frames, s.Places)
	}
}
