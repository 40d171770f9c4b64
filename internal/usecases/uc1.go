package usecases

import (
	"fmt"

	"pera/internal/appraiser"
	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/nac"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/rot"
)

// UC1 — Configuration Assurance. "RA protects against unvetted or
// unwanted dataplane programs that might have been mistakenly or
// deliberately swapped for the intended version." The Athens-affair demo:
// path evidence for a flow attests which program ran at each hop; after
// the adversary swaps sw1's forwarder for a mirroring rogue with the same
// name, appraisal of fresh path evidence fails.

// UC1Result reports one configuration-assurance round.
type UC1Result struct {
	Certificate *appraiser.Certificate
	HopPrograms []string // program names attested along the path, in order
}

// CompileUC1Policy compiles AP1 (restricted to its network half) against
// the testbed path: every keyed hop attests program + tables, signs, and
// chains the evidence in-band.
//
// The compile is cached per testbed: parse + bind + obligation synthesis
// are deterministic for a fixed topology and registry, and the nonce is
// the only per-call input (it lands solely in Policy.Nonce, see
// nac.Compile). Each call clones the template policy with the fresh
// nonce; the obligation slice, bindings and host terms are shared and
// must be treated as read-only by callers.
func CompileUC1Policy(tb *Testbed, nonce []byte) (*nac.Compiled, error) {
	tb.uc1Once.Do(func() {
		pol, err := copland.ParsePolicy(nac.AP1)
		if err != nil {
			tb.uc1Err = err
			return
		}
		tb.uc1Tmpl, tb.uc1Err = nac.Compile(pol, tb.PathHops(), tb.Registry(), nac.Options{
			PolicyID: 1,
			Properties: map[string][]evidence.Detail{
				"X": {evidence.DetailProgram, evidence.DetailTables},
			},
		})
	})
	if tb.uc1Err != nil {
		return nil, tb.uc1Err
	}
	t := tb.uc1Tmpl
	return &nac.Compiled{
		Policy: &pera.Policy{
			ID:    t.Policy.ID,
			Nonce: append([]byte(nil), nonce...),
			Obls:  t.Policy.Obls,
		},
		HostTerms: t.HostTerms,
		Bindings:  t.Bindings,
	}, nil
}

// SendUC1 sends one packet to port 443 under AP1 compiled for nonce —
// bank→client when fromBank, else client→bank — and returns the PERA
// header the receiving host got, whose Evidence is the chained path
// evidence. The receiving host is cleared first, so its Received()[0]
// is this packet's frame.
func SendUC1(tb *Testbed, nonce []byte, fromBank bool, sport uint64, payload []byte) (*pera.Header, error) {
	compiled, err := CompileUC1Policy(tb, nonce)
	if err != nil {
		return nil, err
	}
	to := tb.Client
	if !fromBank {
		to = tb.Bank
	}
	to.Clear()
	if err := tb.SendAttested(compiled.Policy, fromBank, sport, 443, payload); err != nil {
		return nil, err
	}
	hdr, _, err := LastDelivered(to)
	if err != nil {
		return nil, err
	}
	if hdr == nil {
		return nil, fmt.Errorf("usecases: frame reached %s without its PERA header", to.Name())
	}
	return hdr, nil
}

// RunUC1Round sends one attested packet bank→client and appraises the
// chained path evidence the client receives.
func RunUC1Round(tb *Testbed, nonce []byte) (*UC1Result, error) {
	hdr, err := SendUC1(tb, nonce, true, 40000, []byte("hello"))
	if err != nil {
		return nil, err
	}
	cert, err := tb.Appraiser.Appraise("bank→client path", hdr.Evidence, nonce)
	if err != nil {
		return nil, err
	}
	res := &UC1Result{Certificate: cert}
	for _, m := range evidence.Measurements(hdr.Evidence) {
		if m.Detail == evidence.DetailProgram {
			res.HopPrograms = append(res.HopPrograms, m.Target)
		}
	}
	return res, nil
}

// AthensSwap performs the attack: the named switch's program is replaced
// by a behaviourally-compatible rogue that mirrors traffic from the bank
// to a tap port, keeping the legitimate program's name.
func AthensSwap(tb *Testbed, switchName string, tapPort uint64) error {
	sw, ok := tb.Switches[switchName]
	if !ok {
		return fmt.Errorf("uc1: unknown switch %q", switchName)
	}
	rogue := p4ir.NewRogueForwarding(sw.Instance().Program().Name, tapPort)
	if err := sw.ReloadProgram(rogue); err != nil {
		return err
	}
	// The rogue operator re-installs routes and the intercept entry.
	for _, h := range []struct {
		addr uint64
		port uint64
	}{{AddrBank, 1}, {AddrClient, 2}} {
		if err := sw.Instance().InstallEntry("ipv4_fwd", p4ir.Entry{
			Matches: []p4ir.KeyMatch{{Value: h.addr}},
			Action:  "fwd", Params: map[string]uint64{"port": h.port},
		}); err != nil {
			return err
		}
	}
	return sw.Instance().InstallEntry("intercept", p4ir.Entry{
		Matches: []p4ir.KeyMatch{{Value: AddrBank, Mask: ^uint64(0)}},
		Action:  "mirror", Priority: 1,
	})
}

// VerifyBootLog performs the deeper UC1 check: even if golden values were
// later updated to bless the rogue program, the RoT's measured-boot log
// still records the original program followed by the swap — replaying it
// against a fresh quote exposes the history.
func VerifyBootLog(tb *Testbed, switchName string) (events []rot.Event, consistent bool, err error) {
	sw, ok := tb.Switches[switchName]
	if !ok {
		return nil, false, fmt.Errorf("uc1: unknown switch %q", switchName)
	}
	q, err := sw.RoT().Quote(rot.NewNonce(), pera.PCRHardware, pera.PCRProgram)
	if err != nil {
		return nil, false, err
	}
	events = sw.RoT().EventLog()
	return events, rot.VerifyLogAgainstQuote(events, q) == nil, nil
}
