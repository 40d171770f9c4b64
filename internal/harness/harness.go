// Package harness contains the experiment runners that regenerate the
// paper's artifacts: Table 1 (AP1–AP3 compiled and executed end to end),
// Fig. 1 (the attestation round), Fig. 2 (in-band vs out-of-band evidence
// flows), Fig. 3 (pipeline stage costs), and Fig. 4 (the Inertia × Detail
// × Composition design space). The cmd/figures binary prints the rows;
// the repository-root benchmarks time them.
package harness

import (
	"fmt"
	"time"

	"pera/internal/appraiser"
	"pera/internal/attester"
	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/nac"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/pisa"
	"pera/internal/rot"
	"pera/internal/usecases"
)

// Table1Row reports one attestation policy's full lifecycle.
type Table1Row struct {
	Policy        string
	Parsed        bool
	Bound         bool
	Obligations   int
	HostPhrases   int
	WireBytes     int // encoded policy size (in-band header cost)
	HonestVerdict bool
	AttackCaught  bool
	Note          string
}

// RunTable1 exercises AP1, AP2 and AP3 end to end and reports one row per
// policy — the reproduction of Table 1.
func RunTable1() ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 3)

	// --- AP1: path attestation bank↔client + host check. ---
	{
		row := Table1Row{Policy: "AP1"}
		tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
		if err != nil {
			return nil, err
		}
		compiled, err := usecases.CompileUC1Policy(tb, []byte("t1-ap1"))
		if err != nil {
			return nil, fmt.Errorf("AP1: %w", err)
		}
		row.Parsed, row.Bound = true, true
		row.Obligations = len(compiled.Policy.Obls)
		row.HostPhrases = len(compiled.HostTerms)
		row.WireBytes = len(compiled.Policy.Encode())

		bank := attester.NewBankScenario()
		res, err := usecases.RunCrossAttestation(tb, bank, []byte("t1-ap1-honest"))
		if err != nil {
			return nil, err
		}
		row.HonestVerdict = res.Certificate.Verdict

		tb2, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
		if err != nil {
			return nil, err
		}
		if err := usecases.AthensSwap(tb2, usecases.SwEdge, 9); err != nil {
			return nil, err
		}
		bank2 := attester.NewBankScenario()
		res2, err := usecases.RunCrossAttestation(tb2, bank2, []byte("t1-ap1-attack"))
		if err != nil {
			return nil, err
		}
		row.AttackCaught = !res2.Certificate.Verdict
		row.Note = "forall hop: attest(X) chained along path + client host phrase"
		rows = append(rows, row)
	}

	// --- AP2: scanner audit trail. ---
	{
		row := Table1Row{Policy: "AP2"}
		tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
		if err != nil {
			return nil, err
		}
		compiled, err := usecases.CompileUC4Policy(tb, usecases.SwACL)
		if err != nil {
			return nil, fmt.Errorf("AP2: %w", err)
		}
		row.Parsed, row.Bound = true, true
		row.Obligations = len(compiled.Policy.Obls)
		row.WireBytes = len(compiled.Policy.Encode())
		if err := usecases.ArmScanner(tb, usecases.SwACL, compiled); err != nil {
			return nil, err
		}
		tb.SendPlain(true, 4000, usecases.C2Port, []byte("beacon"))
		tb.SendPlain(true, 4001, 443, []byte("benign"))
		records, err := usecases.CollectAudit(tb)
		if err != nil {
			return nil, err
		}
		row.HonestVerdict = len(records) == 1 && records[0].Certificate.Verdict
		// The "attack" for AP2 is a missed or spoofed fingerprint:
		// benign traffic must NOT be attested.
		row.AttackCaught = len(records) == 1
		row.Note = "P |> attest(P): 1 of 2 flows fingerprinted, stored at appraiser"
		rows = append(rows, row)
	}

	// --- AP3: segment attestation with a non-RA gap. ---
	{
		row := Table1Row{Policy: "AP3"}
		pol, err := copland.ParsePolicy(nac.AP3)
		if err != nil {
			return nil, fmt.Errorf("AP3: %w", err)
		}
		row.Parsed = true
		reg := nac.TestRegistry{
			"Peer1": {PlacePred: func(p string) bool { return p == "alice" }},
			"Peer2": {PlacePred: func(p string) bool { return p == "bob" }},
			"Q":     {PlacePred: func(p string) bool { return p == "swR" }},
		}
		path := []nac.PathHop{
			{Name: "alice", CanSign: true},
			{Name: "swF1", Attesting: true, CanSign: true},
			{Name: "swF2", Attesting: true, CanSign: true},
			{Name: "dumb1"},
			{Name: "swR", Attesting: true, CanSign: true},
			{Name: "bob", CanSign: true},
		}
		compiled, err := nac.Compile(pol, path, reg, nac.Options{
			PolicyID: 3,
			Properties: map[string][]evidence.Detail{
				"F1": {evidence.DetailProgram},
				"F2": {evidence.DetailProgram},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("AP3 bind: %w", err)
		}
		row.Bound = true
		row.Obligations = len(compiled.Policy.Obls)
		row.HostPhrases = len(compiled.HostTerms)
		row.WireBytes = len(compiled.Policy.Encode())
		row.HonestVerdict = true // binding is the check: F1@p before F2@q before r
		// Attack: a path missing F2 must not bind.
		badPath := []nac.PathHop{
			{Name: "alice", CanSign: true},
			{Name: "swF1", Attesting: true, CanSign: true},
			{Name: "swR", Attesting: true, CanSign: true},
			{Name: "bob", CanSign: true},
		}
		_, err = nac.Compile(pol, badPath, reg, nac.Options{
			Properties: map[string][]evidence.Detail{
				"F1": {evidence.DetailProgram}, "F2": {evidence.DetailProgram},
			},
		})
		row.AttackCaught = err != nil
		row.Note = "p,q bound in order; non-RA gap before r; missing F2 refuses to bind"
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig1Stats reports the cost of one full attestation round.
type Fig1Stats struct {
	EvidenceBytes int
	Signatures    int
	Verdict       bool
	Elapsed       time.Duration
}

// RunFig1 performs one Fig. 1 round on a standalone switch + appraiser.
func RunFig1() (*Fig1Stats, error) {
	sw, err := pera.New("sw1", p4ir.NewFirewall("firewall_v5.p4"), pera.Config{})
	if err != nil {
		return nil, err
	}
	appr := appraiser.New("appraiser", []byte("fig1"))
	appr.RegisterKey("sw1", sw.RoT().Public())
	gs, err := sw.Golden(evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		appr.SetGolden("sw1", g.Target, g.Detail, g.Value)
	}
	start := time.Now()
	nonce := rot.NewNonce()
	ev, err := sw.Attest(nonce, evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		return nil, err
	}
	cert, err := appr.Appraise("sw1", ev, nonce)
	if err != nil {
		return nil, err
	}
	nsigs, err := evidence.VerifySignatures(ev, evidence.KeyMap{"sw1": sw.RoT().Public()})
	if err != nil {
		return nil, err
	}
	return &Fig1Stats{
		EvidenceBytes: evidence.EncodedSize(ev),
		Signatures:    nsigs,
		Verdict:       cert.Verdict,
		Elapsed:       time.Since(start),
	}, nil
}

// Fig2Row compares one evidence-flow variant.
type Fig2Row struct {
	Variant        string // "in-band" or "out-of-band"
	Flows          int
	WireOverhead   uint64 // extra bytes carried on data frames
	OOBMessages    uint64 // separate evidence messages to the appraiser
	RPRoundTrips   int    // protocol round trips the relying parties need
	CertsStored    int    // certificates parked at the appraiser
	AllAppraisedOK bool
}

// RunFig2 contrasts the paper's Fig. 2 variants over the testbed: the
// in-band variant threads evidence through the traffic itself (RP2 gets
// it with the data, one appraisal call); the out-of-band variant has
// each hop report to the appraiser directly and RP2 retrieve the stored
// certificate later (expression (3)'s store(n)/retrieve(n)).
func RunFig2(flows int) ([]Fig2Row, error) {
	var rows []Fig2Row

	// --- In-band (expression 4). ---
	{
		tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
		if err != nil {
			return nil, err
		}
		ok := true
		for i := 0; i < flows; i++ {
			nonce := []byte(fmt.Sprintf("fig2-ib-%d", i))
			res, err := usecases.RunUC1Round(tb, nonce)
			if err != nil {
				return nil, err
			}
			ok = ok && res.Certificate.Verdict
		}
		var wire uint64
		for _, sw := range tb.Switches {
			wire += sw.Stats().InBandBytes
		}
		rows = append(rows, Fig2Row{
			Variant: "in-band", Flows: flows,
			WireOverhead:   wire,
			OOBMessages:    uint64(len(tb.OOB())),
			RPRoundTrips:   1, // evidence arrives with the data; one appraise call
			AllAppraisedOK: ok,
		})
	}

	// --- Out-of-band (expression 3). ---
	{
		tb, err := usecases.NewTestbed(pera.Config{})
		if err != nil {
			return nil, err
		}
		// Standing obligations: every switch attests per flow and emits
		// to the appraiser out-of-band.
		for _, sw := range tb.Switches {
			cfg := sw.Config()
			cfg.Sampler = evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SamplePerFlow})
			cfg.Standing = []pera.Obligation{{
				Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
				SignEvidence: true,
				Appraiser:    usecases.AppraiserName,
			}}
			sw.SetConfig(cfg)
		}
		for i := 0; i < flows; i++ {
			if err := tb.SendPlain(true, 42000+uint64(i), 443, []byte("data")); err != nil {
				return nil, err
			}
		}
		records, err := usecases.CollectAudit(tb)
		if err != nil {
			return nil, err
		}
		ok := len(records) > 0
		for _, r := range records {
			ok = ok && r.Certificate.Verdict
		}
		rows = append(rows, Fig2Row{
			Variant: "out-of-band", Flows: flows,
			WireOverhead:   0, // data frames travel clean
			OOBMessages:    uint64(len(records)),
			RPRoundTrips:   2, // RP1 triggers; RP2 retrieves the stored cert
			CertsStored:    len(records),
			AllAppraisedOK: ok,
		})
	}
	return rows, nil
}

// Fig3Row is one pipeline-stage cost measurement.
type Fig3Row struct {
	Stage   string
	NsPerOp float64
}

// Fig3Stages enumerates the cumulative pipeline configurations of the
// Fig. 3 switch diagram, each adding one evidence stage.
var Fig3Stages = []string{
	"parse",            // programmable parser only
	"parse+match",      // + match/action forwarding (plain PISA)
	"+evidence-create", // + measurement evidence per packet
	"+hash",            // + # over the evidence
	"+sign",            // + ! (the RoT-backed Sign stage)
	"+inband-header",   // + pop/compose/push of the in-band header
}

// NewFig3Switch builds the switch used by the Fig. 3 benchmark.
func NewFig3Switch() (*pera.Switch, []byte, error) {
	sw, err := pera.New("fig3", p4ir.NewForwarding("fwd_v1.p4"), pera.Config{})
	if err != nil {
		return nil, nil, err
	}
	if err := sw.Instance().InstallEntry("ipv4_fwd", p4ir.Entry{
		Matches: []p4ir.KeyMatch{{Value: 200}},
		Action:  "fwd", Params: map[string]uint64{"port": 2},
	}); err != nil {
		return nil, nil, err
	}
	frame, err := pisa.IPFrame(sw.Instance().Program(), 100, 200, 1234, 443, []byte("payload"))
	if err != nil {
		return nil, nil, err
	}
	return sw, frame, nil
}

// RunFig3Stage executes one iteration of the named stage configuration;
// used by both the benchmark and the figures printer.
func RunFig3Stage(stage string, sw *pera.Switch, frame []byte, inbandFrame []byte) error {
	switch stage {
	case "parse":
		pkt := pisa.NewPacket(frame, 1)
		return sw.Instance().Parse(pkt)
	case "parse+match":
		_, err := sw.Instance().Process(frame, 1)
		return err
	case "+evidence-create":
		if _, err := sw.Instance().Process(frame, 1); err != nil {
			return err
		}
		_, _, err := sw.ClaimValue(evidence.DetailProgram, frame)
		return err
	case "+hash":
		if _, err := sw.Instance().Process(frame, 1); err != nil {
			return err
		}
		t, v, err := sw.ClaimValue(evidence.DetailProgram, frame)
		if err != nil {
			return err
		}
		m := evidence.Measurement(sw.Name(), t, sw.Name(), evidence.DetailProgram, v, nil)
		_ = evidence.Hash(m)
		return nil
	case "+sign":
		if _, err := sw.Instance().Process(frame, 1); err != nil {
			return err
		}
		_, err := sw.Attest(nil, evidence.DetailProgram)
		return err
	case "+inband-header":
		_, err := sw.Receive(1, inbandFrame)
		return err
	default:
		return fmt.Errorf("harness: unknown stage %q", stage)
	}
}

// Fig3InbandFrame wraps frame for the "+inband-header" stage and sets the
// switch to in-band chained mode with a signing obligation.
func Fig3InbandFrame(sw *pera.Switch, frame []byte) []byte {
	cfg := sw.Config()
	cfg.InBand = true
	cfg.Composition = evidence.Chained
	sw.SetConfig(cfg)
	pol := &pera.Policy{
		ID: 3, Nonce: []byte("fig3"),
		Obls: []pera.Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram},
			SignEvidence: true,
		}},
	}
	return pera.WrapFrame(pol, frame)
}

// Fig4Config is one point in the design space.
type Fig4Config struct {
	Detail      evidence.Detail
	Sampling    evidence.Sampling
	Composition evidence.Composition
}

// Fig4Row reports the cost/assurance profile at one design point.
type Fig4Row struct {
	Config        Fig4Config
	Packets       uint64
	EvidenceCount uint64  // obligations executed (post sampling)
	Signatures    uint64  // RoT sign operations
	EvidenceBytes uint64  // evidence bytes produced
	CacheHitRate  float64 // inertia cache effectiveness
}

// RunFig4Point drives packets flows through one PERA switch configured at
// the given design point and reports the counters. Flows are synthesized
// so per-flow sampling sees `flows` distinct flows.
func RunFig4Point(cfg Fig4Config, packets, flows int) (*Fig4Row, error) {
	cache := evidence.NewCache()
	sw, err := pera.New("fig4", p4ir.NewForwarding("fwd_v1.p4"), pera.Config{
		Composition: cfg.Composition,
		Sampler:     evidence.NewSampler(evidence.SamplerConfig{Mode: cfg.Sampling}),
		Cache:       cache,
		Standing: []pera.Obligation{{
			Claims:       []evidence.Detail{cfg.Detail},
			SignEvidence: true,
			Appraiser:    "Appraiser",
		}},
	})
	if err != nil {
		return nil, err
	}
	if err := sw.Instance().InstallEntry("ipv4_fwd", p4ir.Entry{
		Matches: []p4ir.KeyMatch{{Value: 200}},
		Action:  "fwd", Params: map[string]uint64{"port": 2},
	}); err != nil {
		return nil, err
	}
	sw.SetSink(func(string, string, *evidence.Evidence) {})

	if flows <= 0 {
		flows = 1
	}
	prog := sw.Instance().Program()
	frames := make([][]byte, flows)
	for f := 0; f < flows; f++ {
		frames[f], err = pisa.IPFrame(prog, 100, 200, 40000+uint64(f), 443, []byte("data"))
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < packets; i++ {
		if _, err := sw.Receive(1, frames[i%flows]); err != nil {
			return nil, err
		}
	}
	st := sw.Stats()
	return &Fig4Row{
		Config:        cfg,
		Packets:       st.Packets,
		EvidenceCount: st.OutOfBandMsgs,
		Signatures:    st.SignOps,
		EvidenceBytes: st.EvidenceBytes,
		CacheHitRate:  cache.Stats().HitRate(),
	}, nil
}

// RunFig4Sweep covers the full Detail × Sampling grid at both
// compositions.
func RunFig4Sweep(packets, flows int) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, comp := range evidence.Compositions() {
		for _, detail := range evidence.Details() {
			for _, sampling := range evidence.Samplings() {
				row, err := RunFig4Point(Fig4Config{Detail: detail, Sampling: sampling, Composition: comp}, packets, flows)
				if err != nil {
					return nil, err
				}
				rows = append(rows, *row)
			}
		}
	}
	return rows, nil
}
