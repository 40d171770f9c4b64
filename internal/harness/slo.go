package harness

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/pera"
	"pera/internal/rats"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// SLO harness: the trust-decay scenario behind `perasim -slo` and the
// freshness acceptance test. It drives attested UC1 traffic over a
// linear chain under a simulated clock (one tick per packet), with the
// evidence cache's tables/program inertia compressed to seconds so
// freshness plays out inside a short run. Mid-run one switch's sampler
// is frozen — the place silently stops re-attesting while every chain
// verdict keeps passing on its cached claims (the appraiser does not
// require any particular hop to appear, which is precisely the gap the
// watchdog closes). The watchdog's budget burns, an alert fires, active
// re-attestation probes fail while the device stays dark, and — if
// recovery is enabled — the probe refreshes evidence once the device
// answers again and the alert resolves.

// SLOOptions parameterizes one trust-decay run.
type SLOOptions struct {
	// Hops is the number of PERA switches on the chain. Default 4.
	Hops int
	// Packets is how many attested packets to send, at one simulated
	// Tick each. Default 160.
	Packets int
	// FreezeAfter freezes FreezeSwitch's sampler once this many packets
	// have flowed. Negative disables the freeze. Default 16.
	FreezeAfter int
	// FreezeSwitch is the freeze target. Default the middle switch.
	FreezeSwitch string
	// RecoverAfter restores the frozen switch (sampler and probe
	// reachability) at this packet index and immediately probes the
	// firing alerts. Negative disables recovery — the alert stays
	// firing, which is what the smoke script asserts. Default 96.
	RecoverAfter int
	// Tick is the simulated time per packet. Default 1s.
	Tick time.Duration
	// CacheTTL overrides the tables/program inertia window (the Fig. 4
	// knob, evidence.Cache.SetTTL). Default 16s.
	CacheTTL time.Duration
	// Budget overrides the derived staleness budget (default: derived
	// from CacheTTL at SampleEvery 1 → fresh < 24s, lapsed ≥ 48s).
	Budget freshness.Budget
	// Memo enables the appraiser's verification memo.
	Memo bool

	// Watchdog receives everything; one is created when nil. A caller
	// that pre-creates it (perasim, to mount /coverage.json before the
	// run) has it reconfigured onto the harness clock.
	Watchdog *freshness.Watchdog
	// Collector is the observatory plane; one is created when nil.
	Collector *observatory.Collector
	// AlertLog, when non-nil, receives the stderr-style alert lines.
	AlertLog io.Writer
	// AlertJSONL, when non-nil, receives one JSON event per line.
	AlertJSONL io.Writer

	Registry *telemetry.Registry
	Tracer   *telemetry.FlowTracer
	Audit    *auditlog.Writer
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Hops <= 0 {
		o.Hops = 4
	}
	if o.Packets <= 0 {
		o.Packets = 160
	}
	if o.FreezeAfter == 0 {
		o.FreezeAfter = 16
	}
	if o.FreezeSwitch == "" {
		o.FreezeSwitch = fmt.Sprintf("sw%d", (o.Hops+1)/2)
	}
	if o.RecoverAfter == 0 {
		o.RecoverAfter = 96
	}
	if o.Tick <= 0 {
		o.Tick = time.Second
	}
	if o.CacheTTL <= 0 {
		o.CacheTTL = 16 * time.Second
	}
	return o
}

// SLOResult reports one trust-decay run.
type SLOResult struct {
	Hops    int
	Packets int
	Pass    int
	Fail    int

	FreezeAt     int    // packet index of the freeze, -1 if none
	FreezeSwitch string // "" if no freeze
	RecoverAt    int    // packet index of recovery, -1 if none

	// StalenessFiredAt is the 1-based packet count at which the
	// staleness-threshold alert for the frozen place first fired; 0 if
	// it never did. BurnFiredAt is the same for the burn-rate rule
	// (the early warning — it typically fires first).
	StalenessFiredAt int
	BurnFiredAt      int
	// ResolvedAt is the 1-based packet count at which the last firing
	// alert resolved (0 = never, or nothing fired).
	ResolvedAt int

	// CoverageAtFire is the coverage map captured the moment the
	// staleness alert fired — the acceptance evidence that exactly the
	// frozen place had lapsed.
	CoverageAtFire freshness.Coverage
	Coverage       freshness.Coverage       // end of run
	Alerts         freshness.AlertsSnapshot // end of run
	Budget         freshness.Budget

	Watchdog  *freshness.Watchdog
	Collector *observatory.Collector
	Testbed   *usecases.Testbed
	Clock     *freshness.SimClock
}

// RunSLO builds the linear testbed on a simulated clock, wires the
// watchdog into all three of its feeds plus the RATS probe loop, and
// drives the traffic/freeze/recovery scenario.
func RunSLO(o SLOOptions) (*SLOResult, error) {
	o = o.withDefaults()
	clk := freshness.NewSimClock(time.Unix(1_700_000_000, 0))

	cache := evidence.NewCacheWithClock(clk.Now)
	cache.SetTTL(evidence.DetailTables, o.CacheTTL)
	cache.SetTTL(evidence.DetailProgram, o.CacheTTL)

	tb, err := usecases.NewLinearTestbed(o.Hops, pera.Config{
		InBand:      true,
		Composition: evidence.Chained,
		Cache:       cache,
		Spans:       pera.SpanConfig{Enabled: true},
	})
	if err != nil {
		return nil, err
	}

	budget := o.Budget
	if budget == (freshness.Budget{}) {
		budget = freshness.DeriveBudget(o.CacheTTL, 1)
	}
	wcfg := freshness.Config{
		Policy:      "AP1",
		Detail:      evidence.DetailTables,
		TTL:         o.CacheTTL,
		SampleEvery: 1,
		Budget:      budget,
		Clock:       clk.Now,
	}
	wd := o.Watchdog
	if wd == nil {
		wd = freshness.New("watchdog", wcfg)
	} else {
		wd.Configure(wcfg)
	}

	col := o.Collector
	if col == nil {
		col = observatory.New("collector", observatory.Config{})
	}
	if o.AlertLog != nil {
		wd.AddSink(freshness.NewLogSink(o.AlertLog))
	}
	if o.AlertJSONL != nil {
		wd.AddSink(freshness.NewJSONLSink(o.AlertJSONL))
	}

	// Active re-attestation: the full Fig. 1 loop over a rats pipe to
	// the place's attester, appraised with a fresh nonce against the
	// same appraiser. Until recovery, the frozen place's attester is
	// unreachable — the probe fails and the alert keeps firing.
	frozen := make(map[string]bool)
	if o.FreezeAfter >= 0 {
		frozen[o.FreezeSwitch] = true // becomes unreachable at freeze time
	}
	var freezeArmed bool
	prober := &freshness.RATSProber{
		Dial: func(place string) (*rats.Conn, error) {
			if freezeArmed && frozen[place] {
				return nil, errors.New("attester unreachable (re-attestation frozen)")
			}
			sw, ok := tb.Switches[place]
			if !ok {
				return nil, fmt.Errorf("no attester for place %s", place)
			}
			c, s := rats.Pipe()
			go rats.Serve(s, sw.AttesterHandler())
			return c, nil
		},
		NewNonce: func(string) []byte { return tb.NextNonce("probe") },
		Claims:   []string{"program", "tables"},
		Tracer:   o.Tracer,
		AppraiseCtx: func(place string, ctx telemetry.SpanContext, nonce, body []byte) error {
			ev, err := evidence.Decode(body)
			if err != nil {
				return err
			}
			cert, err := tb.Appraiser.AppraiseCtx(ctx, "probe:"+place, ev, nonce)
			if err != nil {
				return err
			}
			if !cert.Verdict {
				return fmt.Errorf("probe verdict FAIL: %s", cert.Reason)
			}
			return nil
		},
		OnFresh: wd.RecordFresh,
		Clock:   clk.Now,
	}
	wd.SetProber(prober)

	// The watchdog's three feeds: the cache lifecycle (evidence age per
	// place), span trails via the collector's reassembly, and verdicts.
	// The appraiser is instrumented before EnableMemo: the probe path's
	// memo stays unexported.
	Planes{
		Registry: o.Registry, Tracer: o.Tracer, Audit: o.Audit,
		Collector: col, Watchdog: wd,
	}.Attach(tb, cache)
	// Probes appraise directly (no pool), so the appraiser traces itself.
	tb.Appraiser.SetTracer(o.Tracer)
	col.SetTracer(o.Tracer)
	if o.Memo {
		tb.Appraiser.EnableMemo(0)
	}

	res := &SLOResult{
		Hops: o.Hops, Packets: o.Packets,
		FreezeAt: -1, RecoverAt: -1,
		Budget:   budget,
		Watchdog: wd, Collector: col, Testbed: tb, Clock: clk,
	}

	neverSampler := evidence.NewSampler(evidence.SamplerConfig{
		Mode: evidence.SampleEveryN, N: 1 << 62,
	})

	firingBy := func(rule string) bool {
		for _, a := range wd.Alerts().Alerts {
			if a.Rule == rule && a.Place == o.FreezeSwitch && a.State == freshness.StateFiring {
				return true
			}
		}
		return false
	}

	for i := 0; i < o.Packets; i++ {
		clk.Advance(o.Tick)
		if o.FreezeAfter >= 0 && i == o.FreezeAfter {
			tb.Switches[o.FreezeSwitch].SetSampler(neverSampler)
			freezeArmed = true
			res.FreezeAt = i
			res.FreezeSwitch = o.FreezeSwitch
		}
		if o.RecoverAfter >= 0 && i == o.RecoverAfter && freezeArmed {
			// Device restored: answers probes again and resumes in-band
			// re-attestation. Probe the firing alerts immediately — the
			// probe, not the next in-band packet, refreshes the trust.
			freezeArmed = false
			res.RecoverAt = i
			wd.ProbeFiring()
			tb.Switches[o.FreezeSwitch].SetSampler(nil)
		}

		nonce := tb.NextNonce("slo")
		compiled, err := usecases.CompileUC1Policy(tb, nonce)
		if err != nil {
			return nil, fmt.Errorf("harness: compile packet %d: %w", i, err)
		}
		tb.Client.Clear()
		if err := tb.SendAttested(compiled.Policy, true, 41000+uint64(i), 443, []byte("slo-data")); err != nil {
			return nil, err
		}
		hdr, _, err := usecases.LastDelivered(tb.Client)
		if err != nil {
			return nil, err
		}
		if hdr == nil {
			return nil, fmt.Errorf("harness: packet %d delivered without header", i)
		}
		cert, err := tb.Appraiser.Appraise("bank→client path", hdr.Evidence, nonce)
		if err != nil {
			return nil, fmt.Errorf("harness: appraise packet %d: %w", i, err)
		}
		if cert.Verdict {
			res.Pass++
		} else {
			res.Fail++
		}

		if res.BurnFiredAt == 0 && firingBy(freshness.RuleBurn) {
			res.BurnFiredAt = i + 1
		}
		if res.StalenessFiredAt == 0 && firingBy(freshness.RuleStaleness) {
			res.StalenessFiredAt = i + 1
			res.CoverageAtFire = wd.Coverage()
		}
		if res.ResolvedAt == 0 && (res.StalenessFiredAt > 0 || res.BurnFiredAt > 0) &&
			wd.Alerts().Firing == 0 {
			res.ResolvedAt = i + 1
		}
	}

	res.Coverage = wd.Coverage()
	res.Alerts = wd.Alerts()
	return res, nil
}
