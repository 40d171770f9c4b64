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
	// Collector reads every switch's hops off the stage seam, for
	// per-hop timing and path traces, and every verdict.
	Collector *observatory.Collector
	// Watchdog consumes the cache's events and every verdict.
	Watchdog *freshness.Watchdog
}

// Attach wires each plane once onto a testbed: every switch and the
// appraiser report to the registry, the tracer and the ledger; the
// network, the evidence cache (nil when the testbed has none), the
// tracer's and the ledger's own health report to the registry; the
// cache's expiries go to the ledger; the collector reads every
// switch's hops; the collector and watchdog get their verdict feeds;
// and the appraiser is bound to Table 1's AP1 term (UC1 path
// attestation) on the ledger. Every plane reads a verdict from the
// appraiser's one appraise envelope, pooled or not, and the places it
// covers from the signers that envelope verified. The watchdog, the
// collector and then the ledger subscribe to it, in that order, so the
// alert records a verdict causes precede the verdict's own record. Call
// it before traffic flows.
func (p Planes) Attach(tb *usecases.Testbed, cache *evidence.Cache) {
	for _, sw := range tb.Switches {
		if p.Registry != nil {
			sw.Instrument(p.Registry)
		}
		sw.SetTracer(p.Tracer)
		sw.SetAudit(p.Audit)
	}
	tb.Appraiser.SetTracer(p.Tracer)
	cache.SetAudit(p.Audit)
	if p.Registry != nil {
		tb.Net.Instrument(p.Registry)
		cache.Instrument(p.Registry)
		tb.Appraiser.Instrument(p.Registry)
		p.Tracer.Instrument(p.Registry)
		p.Audit.Instrument(p.Registry)
	}
	if wd := p.Watchdog; wd != nil {
		cache.SetNotify(wd.CacheEvent)
		tb.Appraiser.Subscribe(wd)
		wd.Track(tb.PathSwitchNames()...)
		if p.Registry != nil {
			wd.Instrument(p.Registry)
		}
		if p.Audit != nil {
			wd.AddSink(freshness.NewAuditSink(p.Audit))
		}
	}
	if p.Collector != nil {
		for _, sw := range tb.Switches {
			sw.Subscribe(p.Collector)
		}
		tb.Appraiser.Subscribe(p.Collector)
	}
	if p.Audit != nil {
		tb.Appraiser.SetAudit(p.Audit)
		tb.Appraiser.SetPolicy("AP1", nac.AP1)
	}
}
