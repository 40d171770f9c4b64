package freshness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"pera/internal/auditlog"
)

// Sink consumes alert lifecycle events. Implementations must be safe
// for concurrent Emit calls; the watchdog invokes sinks outside its
// lock and never blocks evaluation on sink latency beyond the Emit
// call itself.
type Sink interface {
	Emit(e Event)
}

// LogSink writes one human-readable line per event — the stderr sink.
type LogSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogSink wraps w (typically os.Stderr).
func NewLogSink(w io.Writer) *LogSink { return &LogSink{w: w} }

// Emit implements Sink.
func (s *LogSink) Emit(e Event) {
	if s == nil || s.w == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := e.Alert
	switch e.Kind {
	case "fired":
		fmt.Fprintf(s.w, "freshness: ALERT FIRING #%d rule=%s place=%s policy=%s age=%v — %s\n",
			a.ID, a.Rule, a.Place, a.Policy, time.Duration(a.AgeNS).Round(time.Millisecond), a.Reason)
	case "resolved":
		fmt.Fprintf(s.w, "freshness: alert resolved #%d rule=%s place=%s after %d probes (%d clean)\n",
			a.ID, a.Rule, a.Place, a.Probes, a.ProbeOK)
	case "probe":
		outcome := "clean"
		if !e.ProbeOK {
			outcome = "failed: " + e.ProbeErr
		}
		fmt.Fprintf(s.w, "freshness: re-attestation probe place=%s rule=%s → %s\n",
			a.Place, a.Rule, outcome)
	case KindAnomaly:
		fmt.Fprintf(s.w, "recorder: ANOMALY rule=%s place=%s — %s\n", a.Rule, a.Place, a.Reason)
	case KindProfile:
		fmt.Fprintf(s.w, "profiler: REGRESSION rule=%s place=%s — %s\n", a.Rule, a.Place, a.Reason)
	}
}

// AuditSink seals alert transitions onto the tamper-evident audit
// ledger as alert_fired / alert_resolved / alert_probe records, so the
// alert history itself carries the same integrity guarantee as the
// attestation events it summarizes.
type AuditSink struct {
	w *auditlog.Writer
}

// NewAuditSink wraps an attached ledger writer.
func NewAuditSink(w *auditlog.Writer) *AuditSink { return &AuditSink{w: w} }

// Emit implements Sink.
func (s *AuditSink) Emit(e Event) {
	if s == nil || s.w == nil {
		return
	}
	a := e.Alert
	rec := auditlog.Record{
		Place:  a.Place,
		Policy: a.Policy,
		Target: a.Rule,
	}
	switch e.Kind {
	case "fired":
		rec.Event = auditlog.EventAlertFired
		rec.Verdict = "FIRING"
		rec.Note = a.Reason
		rec.DurNS = a.AgeNS
	case "resolved":
		rec.Event = auditlog.EventAlertResolved
		rec.Verdict = "RESOLVED"
		rec.Note = fmt.Sprintf("resolved after %d probes (%d clean)", a.Probes, a.ProbeOK)
		rec.DurNS = a.ResolvedNS - a.FiredAtNS
	case "probe":
		rec.Event = auditlog.EventAlertProbe
		if e.ProbeOK {
			rec.Verdict = "PASS"
			rec.Note = "re-attestation evidence appraised clean"
		} else {
			rec.Verdict = "FAIL"
			rec.Note = e.ProbeErr
		}
	case KindAnomaly:
		// Flight-recorder anomaly detections ride the same sealed trail
		// as the alert lifecycle — no parallel alerting path.
		rec.Event = auditlog.EventAnomaly
		rec.Verdict = "ANOMALY"
		rec.Note = a.Reason
	case KindProfile:
		// Profiler hot-path regressions ride the same trail too, so a
		// perf cliff is as attributable after the fact as a verdict.
		rec.Event = auditlog.EventProfileRegression
		rec.Verdict = "REGRESSION"
		rec.Note = a.Reason
	default:
		return
	}
	s.w.Emit(rec)
}
