package pera

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/auditlog"
	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/p4ir"
	"pera/internal/pisa"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// PCR allocation for PERA platforms, mirroring measured-boot conventions:
// PCR 0 holds the hardware/firmware identity, PCR 4 the loaded dataplane
// program, PCR 5 rolling table state.
const (
	PCRHardware = 0
	PCRProgram  = 4
	PCRTables   = 5
)

// Claim target names used in measurement evidence.
const (
	TargetHardware = "hardware"
	TargetTables   = "tables"
	TargetState    = "state"
	TargetPacket   = "packet"
)

// Sink receives out-of-band evidence emitted by a switch (Fig. 3 cases B,
// C and E): the harness wires it to an appraiser, a collector host, or a
// rats connection.
type Sink func(sw, appraiser string, ev *evidence.Evidence)

// Config tunes a switch's evidence production — the paper's §5.2
// "configuration interface that can tune the level of detail and
// frequency of evidence" (Fig. 4).
type Config struct {
	// InBand enables the in-band header path (pop/compose/push).
	InBand bool
	// Composition selects chained vs pointwise evidence.
	Composition evidence.Composition
	// Sampler decides per packet whether evidence is produced. Nil means
	// attest every sampled packet... nil defaults to per-packet.
	Sampler *evidence.Sampler
	// Cache reuses high-inertia evidence. Nil disables caching.
	Cache *evidence.Cache
	// Standing obligations applied to all traffic (out-of-band
	// configuration); in-band policies arrive in headers.
	Standing []Obligation
	// VerifyIncoming enables the Verify half of the Fig. 3 Sign/Verify
	// stage: in-band evidence arriving on a frame is checked against
	// these keys and the frame is dropped if the chain does not verify
	// — upstream tampering never propagates. Nil disables verification.
	VerifyIncoming evidence.KeyResolver
	// VerifyMemo, when non-nil, memoizes the Verify stage's signature
	// checks, so a high-inertia chain re-presented across packets costs
	// one hash instead of one ed25519.Verify per signature node.
	VerifyMemo *evidence.VerifyMemo
	// Spans tunes in-band hop-span production for the observatory plane
	// (see hopspan.go): per-hop place/timing/outcome records appended to
	// the header alongside the evidence.
	Spans SpanConfig
}

// Stats are cumulative counters the benchmarks read. It is a plain
// snapshot type; the switch maintains the live counters as telemetry
// instruments (see switchMetrics) so concurrent Inject callers never
// serialize on a stats lock.
type Stats struct {
	Packets       uint64 // frames processed
	Attested      uint64 // frames for which evidence was produced
	SignOps       uint64 // RoT signature operations
	EvidenceBytes uint64 // evidence bytes emitted (in-band + out-of-band)
	InBandBytes   uint64 // header bytes carried on egress frames
	OutOfBandMsgs uint64 // sink emissions
	GuardRejects  uint64 // obligations skipped by failed ▶ tests
	SampleSkips   uint64 // obligations skipped by the sampler
	VerifyOps     uint64 // incoming chains checked by the Verify stage
	VerifyFails   uint64 // frames dropped for unverifiable chains
	HopSpans      uint64 // hop spans appended to in-band headers
	HopSpanBytes  uint64 // encoded bytes those spans added
	HopSpanDrops  uint64 // spans dropped for the section byte budget
}

// switchMetrics is the live, lock-free representation of Stats: every
// counter is a telemetry instrument (striped atomics), so the same
// storage backs both the Stats() snapshot API and the telemetry
// registry — there is no second set of books to drift. The counters are
// unconditional; the duration histograms are stage-seam subscribers
// that Instrument attaches.
// The instruments are embedded by value — one switchMetrics sits inside
// each Switch — so constructing a switch costs two histogram bucket
// arrays rather than fifteen separate instrument allocations.
type switchMetrics struct {
	packets       telemetry.Counter
	attested      telemetry.Counter
	signOps       telemetry.Counter
	evidenceBytes telemetry.Counter
	inBandBytes   telemetry.Counter
	outOfBandMsgs telemetry.Counter
	guardRejects  telemetry.Counter
	sampleSkips   telemetry.Counter
	verifyOps     telemetry.Counter
	verifyFails   telemetry.Counter
	hopSpans      telemetry.Counter
	hopSpanBytes  telemetry.Counter
	hopSpanDrops  telemetry.Counter

	signSeconds   telemetry.Histogram // Fig. 3 Sign stage latency
	verifySeconds telemetry.Histogram // Fig. 3 Verify stage latency (in-band)
}

func (m *switchMetrics) init(name string) {
	// One label slice shared by every instrument of this switch.
	sw := []telemetry.Label{telemetry.L("switch", name)}
	m.packets.Init("pera_packets_total", sw)
	m.attested.Init("pera_attested_total", sw)
	m.signOps.Init("pera_sign_ops_total", sw)
	m.evidenceBytes.Init("pera_evidence_bytes_total", sw)
	m.inBandBytes.Init("pera_inband_bytes_total", sw)
	m.outOfBandMsgs.Init("pera_oob_msgs_total", sw)
	m.guardRejects.Init("pera_guard_rejects_total", sw)
	m.sampleSkips.Init("pera_sample_skips_total", sw)
	m.verifyOps.Init("pera_verify_ops_total", sw)
	m.verifyFails.Init("pera_verify_fails_total", sw)
	m.hopSpans.Init("pera_hop_spans_total", sw)
	m.hopSpanBytes.Init("pera_hop_span_bytes_total", sw)
	m.hopSpanDrops.Init("pera_hop_span_drops_total", sw)
	m.signSeconds.Init("pera_sign_seconds", nil, sw)
	m.verifySeconds.Init("pera_switch_verify_seconds", nil, sw)
}

func (m *switchMetrics) instruments() []telemetry.Instrument {
	return []telemetry.Instrument{
		&m.packets, &m.attested, &m.signOps, &m.evidenceBytes, &m.inBandBytes,
		&m.outOfBandMsgs, &m.guardRejects, &m.sampleSkips, &m.verifyOps,
		&m.verifyFails, &m.hopSpans, &m.hopSpanBytes, &m.hopSpanDrops,
		&m.signSeconds, &m.verifySeconds,
	}
}

func (m *switchMetrics) snapshot() Stats {
	return Stats{
		Packets:       m.packets.Value(),
		Attested:      m.attested.Value(),
		SignOps:       m.signOps.Value(),
		EvidenceBytes: m.evidenceBytes.Value(),
		InBandBytes:   m.inBandBytes.Value(),
		OutOfBandMsgs: m.outOfBandMsgs.Value(),
		GuardRejects:  m.guardRejects.Value(),
		SampleSkips:   m.sampleSkips.Value(),
		VerifyOps:     m.verifyOps.Value(),
		VerifyFails:   m.verifyFails.Value(),
		HopSpans:      m.hopSpans.Value(),
		HopSpanBytes:  m.hopSpanBytes.Value(),
		HopSpanDrops:  m.hopSpanDrops.Value(),
	}
}

func (m *switchMetrics) reset() {
	m.packets.Reset()
	m.attested.Reset()
	m.signOps.Reset()
	m.evidenceBytes.Reset()
	m.inBandBytes.Reset()
	m.outOfBandMsgs.Reset()
	m.guardRejects.Reset()
	m.sampleSkips.Reset()
	m.verifyOps.Reset()
	m.verifyFails.Reset()
	m.hopSpans.Reset()
	m.hopSpanBytes.Reset()
	m.hopSpanDrops.Reset()
}

// Switch is a PERA switch: a PISA dataplane plus a root of trust, the
// Sign/Verify stage, and the evidence Create/Inspect/Compose block.
// It implements netsim.Node and netsim.Dataplane, and is safe for
// concurrent Inject: configuration is read under a read lock, the PISA
// instance guards its own tables/registers, and all counters are atomic.
type Switch struct {
	name string
	rot  *rot.RoT
	met  switchMetrics
	// planes carries every observability plane the stages report to;
	// aud is kept for the claim_issued lifecycle record.
	planes telemetry.Planes
	aud    atomic.Pointer[auditlog.Writer]

	mu     sync.RWMutex
	signer evidence.Signer // defaults to the local RoT; see SetSigner
	inst   *pisa.Instance
	cfg    Config
	sink   Sink
}

// New creates a PERA switch, measures the platform into PCR 0 and loads
// prog, measuring it into PCR 4 (the measured-boot sequence a deployed
// switch would perform before enabling its dataplane).
func New(name string, prog *p4ir.Program, cfg Config) (*Switch, error) {
	inst, err := pisa.Load(prog)
	if err != nil {
		return nil, err
	}
	r := rot.NewDeterministic(name, []byte("pera:"+name))
	s := &Switch{name: name, rot: r, signer: r, inst: inst, cfg: cfg}
	s.met.init(name)
	s.planes.Init(name, telemetry.StageSign, telemetry.StageEvidence, telemetry.StageCompose, telemetry.StageVerify)
	if cfg.Sampler == nil {
		s.cfg.Sampler = evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SamplePerPacket})
	}
	if err := r.ExtendData(PCRHardware, []byte("PERA-ASIC-v1:"+name), "hardware identity"); err != nil {
		return nil, err
	}
	pd := prog.Digest()
	if err := r.Extend(PCRProgram, pd, "program "+prog.Name); err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements netsim.Node.
func (s *Switch) Name() string { return s.name }

// Instance implements netsim.Dataplane.
func (s *Switch) Instance() *pisa.Instance { return s.inst }

// RoT exposes the root of trust (read-only use: keys, quotes).
func (s *Switch) RoT() *rot.RoT { return s.rot }

// SetSigner replaces the Sign-stage backend — e.g. with a RemoteSigner
// when the crypto primitive is disaggregated onto a neighbouring device
// (§5.2). The signer's Name must resolve to a key the appraiser trusts
// for this switch. Quotes still come from the local RoT.
func (s *Switch) SetSigner(signer evidence.Signer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.signer = signer
}

// currentSigner returns the active Sign-stage backend.
func (s *Switch) currentSigner() evidence.Signer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.signer
}

// instance returns the live PISA instance under the read lock, so a
// concurrent ReloadProgram cannot race frame processing.
func (s *Switch) instance() *pisa.Instance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inst
}

// SetSink installs the out-of-band evidence destination.
func (s *Switch) SetSink(sink Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
}

// SetSampler swaps the obligation sampler mid-run — the Fig. 4 knob a
// live operator (or a fault) turns: a never-firing sampler silently
// stops this place's in-band re-attestation while the pipeline keeps
// forwarding, which is exactly the trust-decay condition the freshness
// watchdog exists to catch. A nil sampler restores per-packet sampling.
func (s *Switch) SetSampler(sm *evidence.Sampler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sm == nil {
		sm = evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SamplePerPacket})
	}
	s.cfg.Sampler = sm
}

// SetConfig replaces the evidence configuration.
func (s *Switch) SetConfig(cfg Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg.Sampler == nil {
		cfg.Sampler = evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SamplePerPacket})
	}
	s.cfg = cfg
}

// Config returns the current configuration.
func (s *Switch) Config() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg
}

// Stats returns a snapshot of the counters. The values are read from
// the same telemetry instruments a registry exposes, so Stats() and a
// /metrics scrape can never disagree.
func (s *Switch) Stats() Stats {
	return s.met.snapshot()
}

// ResetStats zeroes the counters.
func (s *Switch) ResetStats() {
	s.met.reset()
}

// Instrument registers the switch's counters and stage-latency
// histograms with reg (metric names carry a switch=<name> label) and
// subscribes the histograms to the Sign and Verify stages. Counters keep
// accumulating whether or not they are registered; registration only
// exposes them.
func (s *Switch) Instrument(reg *telemetry.Registry) {
	for _, m := range s.met.instruments() {
		reg.Register(m)
	}
	s.planes.SetHistogram(&s.met.signSeconds, telemetry.StageSign)
	s.planes.SetHistogram(&s.met.verifySeconds, telemetry.StageVerify, telemetry.StageVerifyFail)
}

// SetTracer attaches a flow tracer: per-packet spans for the Verify,
// cache, Sign and compose stages are recorded for sampled flows,
// correlated by the evidence nonce (in-band) or the packet's flow hash.
// A nil tracer detaches.
func (s *Switch) SetTracer(tr *telemetry.FlowTracer) {
	s.planes.SetTracer(tr)
}

// ledgeredStages are the switch stages the audit ledger records.
var ledgeredStages = []telemetry.Stage{
	telemetry.StageVerify, telemetry.StageVerifyFail, telemetry.StageEvidence,
	telemetry.StageCacheHit, telemetry.StageCacheMiss, telemetry.StageCompose,
	telemetry.StageSign, telemetry.StageGuardReject,
}

// SetAudit attaches the durable audit ledger: the same lifecycle events
// the tracer samples into its ring are emitted as hash-chained records
// (every flow, not 1-in-N — the ledger is the compliance trail, the
// tracer the debugging aid). A nil writer detaches.
func (s *Switch) SetAudit(w *auditlog.Writer) {
	s.aud.Store(w)
	s.planes.SetLedger(auditlog.Sink(w), ledgeredStages...)
}

// ReloadProgram swaps the dataplane program, re-measuring PCR 4 — the
// extend chain records both the old and new program, so a swap is always
// visible to an appraiser comparing against a single-program golden log
// (UC1's protection).
func (s *Switch) ReloadProgram(prog *p4ir.Program) error {
	inst, err := pisa.Load(prog)
	if err != nil {
		return err
	}
	if err := s.rot.Extend(PCRProgram, prog.Digest(), "program "+prog.Name); err != nil {
		return err
	}
	s.mu.Lock()
	s.inst = inst
	if s.cfg.Cache != nil {
		s.cfg.Cache.InvalidatePlace(s.name)
	}
	s.mu.Unlock()
	return nil
}

// ClaimValue returns the attestable digest for one detail level. The
// packet argument is used only for DetailPackets and may be nil
// otherwise.
func (s *Switch) ClaimValue(d evidence.Detail, frame []byte) (target string, value rot.Digest, err error) {
	inst := s.instance()
	switch d {
	case evidence.DetailHardware:
		v, err := s.rot.PCR(PCRHardware)
		return TargetHardware, v, err
	case evidence.DetailProgram:
		return inst.Program().Name, inst.ProgramDigest(), nil
	case evidence.DetailTables:
		return TargetTables, inst.TablesDigest(), nil
	case evidence.DetailProgState:
		return TargetState, inst.StateDigest(), nil
	case evidence.DetailPackets:
		return TargetPacket, rot.Sum(frame), nil
	default:
		return "", rot.Digest{}, fmt.Errorf("pera: unknown detail %v", d)
	}
}

// Attest produces signed evidence for the requested details bound to
// nonce — the switch half of Fig. 1 and the `attest(...) -> # -> !`
// phrase of expressions (3)/(4). The hardware claim carries a serialized
// RoT quote in the measurement's Claims bytes so appraisers can verify
// hardware rooting independently.
func (s *Switch) Attest(nonce []byte, details ...evidence.Detail) (*evidence.Evidence, error) {
	return s.AttestCtx(telemetry.SpanContext{}, nonce, details...)
}

// AttestCtx is Attest with a propagated trace context: the servicing
// "attest" span parents under the challenger's span (carried in the
// rats trace-context field), so the challenge round trip and the
// attester-side claim/sign work form one cross-process trace.
func (s *Switch) AttestCtx(parent telemetry.SpanContext, nonce []byte, details ...evidence.Detail) (*evidence.Evidence, error) {
	rec := s.planes.Recorder()
	flow := ""
	if rec.Detailed() && len(nonce) > 0 {
		flow = hex.EncodeToString(nonce)
	}
	rec.Open(telemetry.StageEvent{Stage: telemetry.StageAttest, Flow: flow, Parent: parent})
	if aud := s.aud.Load(); aud != nil {
		names := make([]string, len(details))
		for i, d := range details {
			names[i] = d.String()
		}
		aud.Emit(auditlog.Record{
			Event: auditlog.EventClaimIssued, Place: s.name, Flow: flow,
			Nonce: flow, Detail: strings.Join(names, ","),
		})
	}
	var parts []*evidence.Evidence
	if len(nonce) > 0 {
		parts = append(parts, evidence.Nonce(nonce))
	}
	for _, d := range details {
		m, err := s.claimEvidence(&rec, d, nil)
		if err != nil {
			return nil, err
		}
		parts = append(parts, m)
	}
	signed := s.signEvidence(&rec, evidence.SeqAll(parts...))
	rec.Close(telemetry.StageEvent{})
	return signed, nil
}

// claimTarget returns the cache/evidence target name for a detail level
// without computing the (possibly expensive) claim digest.
func (s *Switch) claimTarget(d evidence.Detail) (string, error) {
	switch d {
	case evidence.DetailHardware:
		return TargetHardware, nil
	case evidence.DetailProgram:
		return s.instance().Program().Name, nil
	case evidence.DetailTables:
		return TargetTables, nil
	case evidence.DetailProgState:
		return TargetState, nil
	case evidence.DetailPackets:
		return TargetPacket, nil
	default:
		return "", fmt.Errorf("pera: unknown detail %v", d)
	}
}

// claimEvidence builds (or fetches from cache) the measurement node for
// one detail level as one evidence, cache_hit or cache_miss stage.
func (s *Switch) claimEvidence(rec *telemetry.StageRecorder, d evidence.Detail, frame []byte) (*evidence.Evidence, error) {
	s.mu.RLock()
	cache := s.cfg.Cache
	s.mu.RUnlock()
	target, err := s.claimTarget(d)
	if err != nil {
		return nil, err
	}
	build := func() (*evidence.Evidence, error) {
		tgt, val, err := s.ClaimValue(d, frame)
		if err != nil {
			return nil, err
		}
		var claims []byte
		if d == evidence.DetailHardware {
			// The hardware claim carries a full serialized quote over
			// the identity and program PCRs, so appraisers can verify
			// the hardware rooting independently of the evidence
			// signature.
			q, err := s.rot.Quote(nil, PCRHardware, PCRProgram)
			if err != nil {
				return nil, err
			}
			claims = rot.EncodeQuote(q)
		}
		return evidence.Measurement(s.name, tgt, s.name, d, val, claims), nil
	}
	m := rec.Begin(telemetry.StageEvidence)
	stage := telemetry.StageEvidence
	var ev *evidence.Evidence
	if cache == nil {
		ev, err = build()
	} else {
		var hit bool
		ev, hit, err = cache.GetOrProduce(s.name, target, d, build)
		stage = telemetry.StageCacheMiss
		if hit {
			stage = telemetry.StageCacheHit
		}
	}
	rec.End(m, telemetry.StageEvent{Stage: stage, Target: target, Detail: d.String()})
	return ev, err
}

// Inject delivers one frame to the switch's pipeline. It is the
// concurrent-ingestion entry point: multiple goroutines may Inject into
// the same switch simultaneously (the throughput harness's per-worker
// traffic sources do exactly that).
func (s *Switch) Inject(port uint64, frame []byte) ([]netsim.Emission, error) {
	return s.Receive(port, frame)
}

// Receive implements netsim.Node: the full Fig. 3 pipeline with the
// evidence stages around the PISA core. Safe for concurrent use.
func (s *Switch) Receive(port uint64, frame []byte) ([]netsim.Emission, error) {
	s.mu.RLock()
	cfg := s.cfg
	sink := s.sink
	inst := s.inst
	s.mu.RUnlock()
	s.met.packets.Inc()
	rec := s.planes.Recorder()

	var hdr *Header
	var sp *HopSpan
	var spanStart time.Time
	evBefore := 0
	inner := frame
	if cfg.InBand && HasHeader(frame) {
		h, rest, err := Pop(frame)
		if err != nil {
			return nil, err
		}
		hdr, inner = h, rest
		flow := ""
		if rec.Detailed() || cfg.Spans.Enabled {
			flow = FlowID(hdr)
		}
		rec.Open(telemetry.StageEvent{Stage: telemetry.StageHop, Flow: flow})
		if cfg.Spans.Enabled && cfg.Spans.Sampled(flow) {
			sp = &HopSpan{Place: s.name}
			spanStart = time.Now()
			evBefore = evidence.EncodedSize(hdr.Evidence)
			rec.Tally() // sp reads this hop's stages off the recorder
		}
		// The Verify half of the Sign/Verify stage (Fig. 3): inspect the
		// incoming chain before doing any work on its behalf; a frame
		// whose evidence does not verify is dropped here, so upstream
		// tampering cannot ride further along the path.
		if cfg.VerifyIncoming != nil {
			s.met.verifyOps.Inc()
			m := rec.Begin(telemetry.StageVerify)
			var err error
			if cfg.VerifyMemo != nil {
				// Batch path: gather the chain's signatures, settle them
				// with one batch equation (or per-item fallback), seed the
				// memo, then walk as usual — verdicts and error text are
				// identical to the unbatched stage.
				bv := switchBatchPool.Get().(*evidence.BatchVerifier)
				bv.Reset(cfg.VerifyMemo)
				_, err = evidence.VerifySignaturesBatched(hdr.Evidence, cfg.VerifyIncoming, cfg.VerifyMemo, bv)
				switchBatchPool.Put(bv)
			} else {
				_, err = evidence.VerifySignaturesMemo(hdr.Evidence, cfg.VerifyIncoming, nil)
			}
			if err != nil {
				s.met.verifyFails.Inc()
				rec.End(m, telemetry.StageEvent{
					Stage: telemetry.StageVerifyFail, Note: err.Error(),
					Prov: telemetry.Provenance{
						Clause: "Khop |> attest(n) X -> !", Stage: "signature", Reason: err.Error(),
					},
				})
				rec.Close(telemetry.StageEvent{Note: "dropped"})
				return nil, nil
			}
			rec.End(m, telemetry.StageEvent{})
		}
	}

	outs, err := inst.Process(inner, port)
	if err != nil {
		return nil, err
	}
	if len(outs) == 0 {
		return nil, nil
	}

	// Evidence stage: obligations come from the standing config and any
	// in-band policy. The two sources are iterated in place — standing
	// first, then the policy's precomputed per-place index — instead of
	// concatenating them into a fresh slice per packet.
	pkt := outs[0].Packet
	if hdr == nil && rec.Detailed() {
		rec.Open(telemetry.StageEvent{Stage: telemetry.StageHop, Flow: strconv.FormatUint(pkt.FlowHash(), 16)})
	}
	var outcomes [obligationOutcomes]int
	for i := range cfg.Standing {
		o := &cfg.Standing[i]
		if !o.AppliesAt(s.name) {
			continue
		}
		out, err := s.applyObligation(&rec, o, &cfg, sink, pkt, inner, hdr)
		if err != nil {
			return nil, err
		}
		outcomes[out]++
	}
	if hdr != nil {
		if idx, ok := hdr.Policy.forPlace(s.name); ok {
			for _, i := range idx {
				out, err := s.applyObligation(&rec, &hdr.Policy.Obls[i], &cfg, sink, pkt, inner, hdr)
				if err != nil {
					return nil, err
				}
				outcomes[out]++
			}
		} else {
			for i := range hdr.Policy.Obls {
				o := &hdr.Policy.Obls[i]
				if !o.AppliesAt(s.name) {
					continue
				}
				out, err := s.applyObligation(&rec, o, &cfg, sink, pkt, inner, hdr)
				if err != nil {
					return nil, err
				}
				outcomes[out]++
			}
		}
	}
	attested := outcomes[obligationAttested] > 0
	if attested {
		s.met.attested.Inc()
	}

	// Seal this hop's span into the header, budget permitting. EvBytes is
	// the chain growth across the hop, TotalNS the whole-pipeline time —
	// measured here so the span itself is the last thing the hop does.
	if sp != nil {
		if attested {
			sp.Flags |= SpanAttested
		}
		if rec.Count(telemetry.StageVerify) > 0 {
			sp.Flags |= SpanVerified
			sp.VerifyNS = uint64(rec.Total(telemetry.StageVerify))
		}
		sp.SignNS = uint64(rec.Total(telemetry.StageSign))
		sp.CacheHits = uint16(rec.Count(telemetry.StageCacheHit))
		sp.CacheMisses = uint16(rec.Count(telemetry.StageCacheMiss))
		sp.GuardRejects = uint16(outcomes[obligationGuarded])
		sp.SampleSkips = uint16(outcomes[obligationSkipped])
		if grown := evidence.EncodedSize(hdr.Evidence) - evBefore; grown > 0 {
			sp.EvBytes = uint32(grown)
		}
		sp.TotalNS = uint64(time.Since(spanStart))
		before := 0
		if len(hdr.Spans) > 0 || hdr.SpansTruncated {
			before = SpanSectionSize(hdr.Spans)
		}
		withSelf := SpanSectionSize(append(hdr.Spans[:len(hdr.Spans):len(hdr.Spans)], *sp))
		if withSelf <= cfg.Spans.Budget() {
			hdr.Spans = append(hdr.Spans, *sp)
			s.met.hopSpans.Inc()
			s.met.hopSpanBytes.Add(uint64(withSelf - before))
		} else {
			hdr.SpansTruncated = true
			s.met.hopSpanDrops.Inc()
		}
	}

	emissions := make([]netsim.Emission, 0, len(outs))
	for _, o := range outs {
		data := o.Packet.Data
		if hdr != nil {
			data = Push(hdr, data)
			s.met.inBandBytes.Add(uint64(len(data) - len(o.Packet.Data)))
		}
		emissions = append(emissions, netsim.Emission{Port: o.Port, Frame: data})
	}
	// The hop span covers the whole pipeline and is recorded last, after
	// its stage spans, so the ring holds complete hops.
	rec.Close(telemetry.StageEvent{})
	return emissions, nil
}

// switchBatchPool reuses BatchVerifier state (signature arenas, item
// lists) across the Verify stage's per-frame batch passes.
var switchBatchPool = sync.Pool{New: func() any { return evidence.NewBatchVerifier(nil) }}

// obligationOutcome is what one obligation did at this hop.
type obligationOutcome uint8

const (
	obligationAttested obligationOutcome = iota // evidence produced
	obligationGuarded                           // skipped by a failed ▶ test
	obligationSkipped                           // skipped by the sampler
	obligationOutcomes
)

// applyObligation runs one obligation against the current packet: guard
// and sampling gates, evidence production, and in-band or out-of-band
// emission.
func (s *Switch) applyObligation(rec *telemetry.StageRecorder, o *Obligation, cfg *Config, sink Sink, pkt *pisa.Packet, inner []byte, hdr *Header) (obligationOutcome, error) {
	if !MatchAll(o.Guards, pkt) {
		s.met.guardRejects.Inc()
		if rec.Detailed() {
			rec.Mark(telemetry.StageEvent{
				Stage: telemetry.StageGuardReject,
				Prov: telemetry.Provenance{
					Clause: guardClause(o.Guards), Stage: "guard",
					Reason: "NetKAT guard test failed; obligation skipped",
				},
			})
		}
		return obligationGuarded, nil
	}
	if !cfg.Sampler.Sample(pkt.FlowHash()) {
		s.met.sampleSkips.Inc()
		return obligationSkipped, nil
	}
	ev, err := s.obligationEvidence(rec, o, inner, hdr)
	if err != nil {
		return obligationAttested, err
	}
	switch {
	case hdr != nil && cfg.Composition == evidence.Chained:
		hdr.Evidence = ev
	default:
		// Pointwise (or no header to thread through): out-of-band.
		s.emitOOB(sink, o.Appraiser, ev)
	}
	return obligationAttested, nil
}

// obligationEvidence builds the evidence one obligation demands,
// composing with the header chain when chained.
func (s *Switch) obligationEvidence(rec *telemetry.StageRecorder, o *Obligation, frame []byte, hdr *Header) (*evidence.Evidence, error) {
	// Obligations carry one claim in the common case; fold incrementally
	// so no parts slice is materialized.
	var local *evidence.Evidence
	for i, d := range o.Claims {
		m, err := s.claimEvidence(rec, d, frame)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			local = m
		} else {
			local = evidence.Seq(local, m)
		}
	}
	if local == nil {
		local = evidence.Empty()
	}
	if o.HashEvidence {
		local = evidence.Hash(local)
	}
	cfg := s.Config()
	if hdr != nil && cfg.Composition == evidence.Chained {
		// Thread the incoming chain through this hop: local evidence is
		// sequenced after everything accumulated so far, and the switch
		// signs the whole chain, committing to its position on the path.
		m := rec.Begin(telemetry.StageCompose)
		composed := evidence.Seq(hdr.Evidence, local)
		rec.End(m, telemetry.StageEvent{Note: "chained"})
		if o.SignEvidence {
			composed = s.signEvidence(rec, composed)
		}
		s.met.evidenceBytes.Add(uint64(evidence.EncodedSize(composed)))
		return composed, nil
	}
	if o.SignEvidence {
		local = s.signEvidence(rec, local)
	}
	s.met.evidenceBytes.Add(uint64(evidence.EncodedSize(local)))
	return local, nil
}

// signEvidence is the Sign stage: one signature op counted and reported.
func (s *Switch) signEvidence(rec *telemetry.StageRecorder, ev *evidence.Evidence) *evidence.Evidence {
	s.met.signOps.Inc()
	m := rec.Begin(telemetry.StageSign)
	signed := evidence.Sign(s.currentSigner(), ev)
	rec.End(m, telemetry.StageEvent{})
	return signed
}

// guardClause renders a guard list as the NetKAT test expression it
// encodes — a sequential composition of field tests — for verdict
// provenance on guard_reject records.
func guardClause(gs []Guard) string {
	if len(gs) == 0 {
		return "true"
	}
	terms := make([]string, len(gs))
	for i, g := range gs {
		terms[i] = fmt.Sprintf("%s = %d", g.Field, g.Value)
	}
	return strings.Join(terms, " · ")
}

func (s *Switch) emitOOB(sink Sink, appraiserPlace string, ev *evidence.Evidence) {
	s.met.outOfBandMsgs.Inc()
	if sink != nil {
		sink(s.name, appraiserPlace, ev)
	}
}

// GoldenValues returns the appraiser-side reference digests for this
// switch's current configuration, keyed by (target, detail). Operators
// distribute these when provisioning appraisal policies.
type GoldenValue struct {
	Target string
	Detail evidence.Detail
	Value  rot.Digest
}

// Golden lists reference values for the given details.
func (s *Switch) Golden(details ...evidence.Detail) ([]GoldenValue, error) {
	var out []GoldenValue
	for _, d := range details {
		t, v, err := s.ClaimValue(d, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, GoldenValue{Target: t, Detail: d, Value: v})
	}
	return out, nil
}
