package harness

import (
	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/freshness"
	"pera/internal/nac"
	"pera/internal/observatory"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// Planes are the observability planes a run reports into; nil planes
// stay off.
type Planes struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.FlowTracer
	Audit    *auditlog.Writer
	// Collector shadows the client host, reassembling in-band span
	// trails, and observes every verdict.
	Collector *observatory.Collector
	// Watchdog consumes the cache's events, the collector's span trails
	// and every verdict (teeing verdicts on to the collector).
	Watchdog *freshness.Watchdog
}

// Attach wires each plane once onto a testbed: every switch reports to
// the registry, the tracer and the ledger; the network, the evidence
// cache (nil when the testbed has none), the tracer's and the ledger's
// own health report to the registry; the cache's expiries go to the
// ledger; the appraiser reports to the registry and, bound to Table 1's
// AP1 term (UC1 path attestation), to the ledger; and the collector and
// watchdog get their feeds. Call it before traffic flows and after
// EnableMemo, so the memo's counters are exported too.
func (p Planes) Attach(tb *usecases.Testbed, cache *evidence.Cache) {
	for _, sw := range tb.Switches {
		if p.Registry != nil {
			sw.Instrument(p.Registry)
		}
		sw.SetTracer(p.Tracer)
		sw.SetAudit(p.Audit)
	}
	cache.SetAudit(p.Audit)
	if p.Registry != nil {
		tb.Net.Instrument(p.Registry)
		cache.Instrument(p.Registry)
		tb.Appraiser.Instrument(p.Registry)
		p.Tracer.Instrument(p.Registry)
		p.Audit.Instrument(p.Registry)
	}
	if p.Audit != nil {
		tb.Appraiser.SetAudit(p.Audit)
		tb.Appraiser.SetPolicy("AP1", nac.AP1)
	}
	if p.Collector != nil {
		p.Collector.AttachHost(tb.Client)
		tb.Appraiser.SetObserver(p.Collector)
	}
	if wd := p.Watchdog; wd != nil {
		cache.SetNotify(wd.CacheEvent)
		if p.Collector != nil {
			p.Collector.SetPathSink(wd.IngestPath)
			wd.SetForward(p.Collector)
		}
		// The watchdog owns the appraiser's observer slot.
		tb.Appraiser.SetObserver(wd)
		wd.Track(tb.PathSwitchNames()...)
		if p.Registry != nil {
			wd.Instrument(p.Registry)
		}
		if p.Audit != nil {
			wd.AddSink(freshness.NewAuditSink(p.Audit))
		}
	}
}
