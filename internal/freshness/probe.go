package freshness

import (
	"errors"
	"fmt"
	"time"

	"pera/internal/rats"
	"pera/internal/telemetry"
)

// Prober issues an active re-attestation for a place. A nil error means
// the full Fig. 1 loop closed clean: challenge → evidence → appraisal →
// passing result.
type Prober interface {
	Probe(place string) error
}

// ProbeFunc adapts a function to the Prober interface.
type ProbeFunc func(place string) error

// Probe implements Prober.
func (f ProbeFunc) Probe(place string) error { return f(place) }

// RATSProber drives the paper's Fig. 1 challenge-response loop over the
// rats wire protocol: dial the place's attester, send MsgChallenge with
// a fresh nonce (the appraiser rejects replays, so every probe must
// mint its own), and appraise the returned evidence. On a clean
// appraisal it commits the fresh instant via OnFresh — normally wired
// to Watchdog.RecordFresh.
type RATSProber struct {
	// Dial connects to the place's attester endpoint (in simulations, a
	// rats.Pipe served by the switch's AttesterHandler). Required.
	Dial func(place string) (*rats.Conn, error)
	// NewNonce mints a fresh challenge nonce per probe. Required.
	NewNonce func(place string) []byte
	// Claims is the challenge claim spec (e.g. "program", "tables").
	Claims []string
	// Appraise judges the returned evidence against the active policy;
	// nil error means clean. ctx is the probe span, for the appraisal
	// side to parent under (zero when the flow is unsampled). Required.
	Appraise func(place string, ctx telemetry.SpanContext, nonce, evidenceBody []byte) error
	// OnFresh commits a clean probe (typically Watchdog.RecordFresh).
	OnFresh func(place string, at time.Time)
	// Clock stamps the fresh instant; default time.Now.
	Clock func() time.Time
	// Tracer, when set, records a root "probe" span per probe (for
	// sampled nonce flows) and propagates its context in the challenge
	// frame, so the attester's and appraiser's spans join one trace.
	Tracer *telemetry.FlowTracer
}

// Probe implements Prober.
func (p *RATSProber) Probe(place string) error {
	if p.Dial == nil || p.NewNonce == nil || p.Appraise == nil {
		return errors.New("rats prober: Dial, NewNonce, and Appraise are required")
	}
	conn, err := p.Dial(place)
	if err != nil {
		return fmt.Errorf("dial attester %s: %w", place, err)
	}
	defer conn.Close()

	nonce := p.NewNonce(place)
	pctx := p.Tracer.NewContext(rats.FlowID(nonce))
	var pstart time.Time
	if pctx.Valid() {
		pstart = time.Now()
	}
	probeErr := func(err error) error {
		if pctx.Valid() {
			p.Tracer.RecordSpan(pctx, telemetry.SpanContext{}, rats.FlowID(nonce), place,
				telemetry.StageProbe, pstart, time.Since(pstart), errNote(err))
		}
		return err
	}
	req := &rats.Message{Type: rats.MsgChallenge, Nonce: nonce, Claims: p.Claims}
	req.SetContext(pctx)
	resp, err := conn.Call(req)
	if err != nil {
		return probeErr(fmt.Errorf("challenge %s: %w", place, err))
	}
	if resp.Type != rats.MsgEvidence {
		return probeErr(fmt.Errorf("challenge %s: attester answered %v: %s", place, resp.Type, resp.Body))
	}
	if err := p.Appraise(place, pctx, nonce, resp.Body); err != nil {
		return probeErr(fmt.Errorf("probe evidence from %s: %w", place, err))
	}
	if p.OnFresh != nil {
		clock := p.Clock
		if clock == nil {
			clock = time.Now
		}
		p.OnFresh(place, clock())
	}
	return probeErr(nil)
}

// errNote renders a probe outcome for the span note.
func errNote(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
