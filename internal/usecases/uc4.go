package usecases

import (
	"fmt"

	"pera/internal/appraiser"
	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/nac"
	"pera/internal/rot"
)

// UC4 — Evidence as Documentation. A switch runs AP2: a traffic-pattern
// test P fingerprints malware command-and-control flows (sub-case A);
// matches are attested, signed and stored at the appraiser as an audit
// trail that can justify subsequent action; the deactivation action
// itself is recorded the same way (sub-case B), proving compliance with
// the authorizing order.

// CompileUC4Policy compiles AP2 for the scanner switch: when the C2 test
// fires, attest the matching packet (DetailPackets) and the scanner's
// program identity, sign, and store at the appraiser.
func CompileUC4Policy(tb *Testbed, scanner string) (*nac.Compiled, error) {
	pol, err := copland.ParsePolicy(nac.AP2)
	if err != nil {
		return nil, err
	}
	// AP2 names the place "scanner"; bind it to the concrete switch by
	// matching against a single-hop path view.
	path := []nac.PathHop{{Name: "scanner", Attesting: true, CanSign: true}}
	compiled, err := nac.Compile(pol, path, tb.Registry(), nac.Options{
		PolicyID: 4,
		Properties: map[string][]evidence.Detail{
			"P": {evidence.DetailPackets, evidence.DetailProgram},
		},
	})
	if err != nil {
		return nil, err
	}
	// Retarget the compiled obligation at the concrete scanner.
	for i := range compiled.Policy.Obls {
		compiled.Policy.Obls[i].Place = scanner
	}
	return compiled, nil
}

// ArmScanner installs the compiled AP2 obligations as standing
// (out-of-band) configuration on the scanner switch.
func ArmScanner(tb *Testbed, scanner string, compiled *nac.Compiled) error {
	sw, ok := tb.Switches[scanner]
	if !ok {
		return fmt.Errorf("uc4: unknown switch %q", scanner)
	}
	cfg := sw.Config()
	cfg.Standing = append(cfg.Standing, compiled.Policy.Obls...)
	sw.SetConfig(cfg)
	return nil
}

// AuditRecord is one stored, appraised observation.
type AuditRecord struct {
	Certificate *appraiser.Certificate
	Switch      string
}

// CollectAudit appraises and stores every piece of out-of-band evidence
// the testbed has gathered, returning the records. This is the evidence
// pipeline from scanner to court-ready documentation.
func CollectAudit(tb *Testbed) ([]AuditRecord, error) {
	var out []AuditRecord
	for _, o := range tb.OOB() {
		nonce := tb.NextNonce("audit")
		cert, err := tb.Appraiser.Appraise("uc4:"+o.Switch, o.Evidence, nonce)
		if err != nil {
			return nil, err
		}
		tb.Appraiser.Store(cert)
		out = append(out, AuditRecord{Certificate: cert, Switch: o.Switch})
	}
	return out, nil
}

// RecordAction documents a remediation action (sub-case B): the acting
// switch attests its own identity and the action description, signs, and
// the appraiser stores the result for later compliance review.
func RecordAction(tb *Testbed, actor, description string, nonce []byte) (*appraiser.Certificate, error) {
	sw, ok := tb.Switches[actor]
	if !ok {
		return nil, fmt.Errorf("uc4: unknown switch %q", actor)
	}
	ev, err := sw.Attest(nonce, evidence.DetailHardware, evidence.DetailProgram)
	if err != nil {
		return nil, err
	}
	// The action description is bound into the evidence as a measurement
	// of the action text itself.
	action := evidence.Measurement(actor, "action:"+description, actor,
		evidence.DetailProgState, rot.Sum([]byte(description)), nil)
	full := evidence.Sign(sw.RoT(), evidence.Seq(ev, action))
	cert, err := tb.Appraiser.Appraise("uc4-action:"+actor, full, nonce)
	if err != nil {
		return nil, err
	}
	tb.Appraiser.Store(cert)
	return cert, nil
}
