package harness

import (
	"encoding/hex"
	"fmt"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/observatory"
	"pera/internal/pera"
	"pera/internal/recorder"
	"pera/internal/telemetry"
	"pera/internal/usecases"
)

// Observatory harness: the end-to-end loop behind `perasim -uc observe`
// and the localization acceptance test. It drives attested UC1 traffic
// over a linear bank—sw1—…—swN—client chain with hop spans enabled,
// feeds the collector from all three of its inputs (terminal frames,
// appraisal verdicts, periodic telemetry pushes), injects the Athens
// program swap mid-run, and reports how many packets the anomaly model
// needed to localize the compromise to the right switch.

// ObserveOptions parameterizes one observatory run.
type ObserveOptions struct {
	// Hops is the number of PERA switches on the chain. Default 4.
	Hops int
	// Packets is how many attested packets to send. Default 96.
	Packets int
	// AttackAfter injects the UC1 program swap once this many packets
	// have flowed (so the collector has a healthy baseline). Negative
	// disables the attack. Default Packets/3.
	AttackAfter int
	// AttackSwitch is the swap target. Default the middle switch.
	AttackSwitch string
	// SampleEvery spans 1-in-N flows (the Fig. 4 Inertia knob); 0/1
	// spans every flow.
	SampleEvery uint32
	// ByteBudget caps the in-band span section (the Detail knob); 0
	// uses pera.DefaultSpanBudget.
	ByteBudget int
	// StatsEvery pushes switch/audit/memo health to the collector every
	// N packets (the out-of-band telemetry feed). Default 16.
	StatsEvery int
	// Memo enables the appraiser's verification memo.
	Memo bool
	// NetTracing turns on netsim delivery tracing so the result's
	// testbed can corroborate span hop order against frames on the wire.
	NetTracing bool

	// Collector receives everything; one is created when nil.
	Collector *observatory.Collector
	// Registry/Tracer/Audit instrument the run like the throughput
	// harness: switch counters and histograms, RATS flow spans, and the
	// hash-chained lifecycle ledger.
	Registry *telemetry.Registry
	Tracer   *telemetry.FlowTracer
	Audit    *auditlog.Writer
	// Recorder, when set, is scraped once per packet instead of on a
	// wall-clock tick, so flight-recorder history, anomaly detection and
	// incident capture are deterministic in simulation.
	Recorder *recorder.Recorder
}

func (o ObserveOptions) withDefaults() ObserveOptions {
	if o.Hops <= 0 {
		o.Hops = 4
	}
	if o.Packets <= 0 {
		o.Packets = 96
	}
	if o.AttackAfter == 0 {
		o.AttackAfter = o.Packets / 3
	}
	if o.AttackSwitch == "" {
		o.AttackSwitch = fmt.Sprintf("sw%d", (o.Hops+1)/2)
	}
	if o.StatsEvery <= 0 {
		o.StatsEvery = 16
	}
	return o
}

// ObserveResult reports one observatory run.
type ObserveResult struct {
	Hops         int
	Packets      int
	Pass         int
	Fail         int
	AttackAt     int    // packet index (0-based) of the swap, -1 if none
	AttackSwitch string // "" if no attack
	// LocalizedAt is the 1-based packet count at which the collector
	// first localized a compromise; 0 if it never did.
	LocalizedAt  int
	Localization *observatory.Localization

	// Flows holds the per-packet flow IDs (hex nonce) in send order —
	// the key joining span traces, appraisal verdicts and ledger events.
	Flows []string
	// Verdicts holds the per-packet appraisal outcomes, parallel to Flows.
	Verdicts []bool

	// Testbed and Collector stay live for inspection: path snapshots,
	// netsim delivery traces, switch stats.
	Testbed   *usecases.Testbed
	Collector *observatory.Collector
}

// PathSwitches returns the switch hop order of the run's path.
func (r *ObserveResult) PathSwitches() []string {
	return r.Testbed.PathSwitchNames()
}

// RunObserve builds the linear testbed, wires the collector into all
// three feeds, and drives the traffic/attack/appraisal loop.
func RunObserve(o ObserveOptions) (*ObserveResult, error) {
	o = o.withDefaults()
	cache := evidence.NewCache()
	tb, err := usecases.NewLinearTestbed(o.Hops, pera.Config{
		InBand:      true,
		Composition: evidence.Chained,
		Cache:       cache,
		Spans: pera.SpanConfig{
			Enabled:     true,
			SampleEvery: o.SampleEvery,
			ByteBudget:  o.ByteBudget,
		},
	})
	if err != nil {
		return nil, err
	}
	col := o.Collector
	if col == nil {
		col = observatory.New("collector", observatory.Config{})
	}
	if o.Memo {
		tb.Appraiser.EnableMemo(0)
	}
	// The collector's feeds 1 and 2: the span trails of terminal frames,
	// and appraisal verdicts with place attribution.
	Planes{Registry: o.Registry, Tracer: o.Tracer, Audit: o.Audit, Collector: col}.Attach(tb, cache)
	tb.Net.SetTracing(o.NetTracing)

	res := &ObserveResult{
		Hops: o.Hops, Packets: o.Packets,
		AttackAt:  -1,
		Testbed:   tb,
		Collector: col,
	}
	// Feed 3: periodic out-of-band health pushes.
	push := func() {
		for name, sw := range tb.Switches {
			col.IngestStats(name, sw.Stats())
		}
		if o.Audit != nil {
			col.IngestAudit(usecases.AppraiserName, o.Audit.Records(), o.Audit.Dropped())
		}
		if o.Memo {
			ms := tb.Appraiser.MemoStats()
			col.IngestMemo(usecases.AppraiserName, ms.Hits, ms.Misses)
		}
	}
	for i := 0; i < o.Packets; i++ {
		if o.AttackAfter >= 0 && i == o.AttackAfter {
			if err := usecases.AthensSwap(tb, o.AttackSwitch, 9); err != nil {
				return nil, err
			}
			res.AttackAt = i
			res.AttackSwitch = o.AttackSwitch
		}
		nonce := tb.NextNonce("obs")
		compiled, err := usecases.CompileUC1Policy(tb, nonce)
		if err != nil {
			return nil, fmt.Errorf("harness: compile packet %d: %w", i, err)
		}
		tb.Client.Clear()
		if err := tb.SendAttested(compiled.Policy, true, 40000+uint64(i), 443, []byte("obs-data")); err != nil {
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
		res.Flows = append(res.Flows, hex.EncodeToString(nonce))
		res.Verdicts = append(res.Verdicts, cert.Verdict)
		if cert.Verdict {
			res.Pass++
		} else {
			res.Fail++
		}
		if res.LocalizedAt == 0 && col.Localized() != nil {
			res.LocalizedAt = i + 1
		}
		if (i+1)%o.StatsEvery == 0 {
			push()
		}
		o.Recorder.Scrape()
	}
	push()
	o.Recorder.Scrape()
	res.Localization = col.Localized()
	return res, nil
}
