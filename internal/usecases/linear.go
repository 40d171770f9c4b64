package usecases

import (
	"fmt"

	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/rot"
)

// NewLinearTestbed builds a bank — sw1 — sw2 — … — swN — client chain of
// PERA forwarding switches, fully provisioned like the standard testbed
// (AIKs endorsed, hardware/program/tables goldens installed, routes
// computed). It is the observatory's scale topology: any hop count the
// Fig. 4 Detail/Inertia sweeps or a localization scenario needs, where
// the standard 3-switch testbed is fixed.
func NewLinearTestbed(nSwitches int, cfg pera.Config) (*Testbed, error) {
	if nSwitches < 1 {
		return nil, fmt.Errorf("usecases: linear testbed needs at least 1 switch, got %d", nSwitches)
	}
	tb := &Testbed{
		Net:       netsim.New(),
		Switches:  map[string]*pera.Switch{},
		Appraiser: appraiser.New(AppraiserName, []byte("testbed-appraiser")),
		Authority: rot.NewDeterministicAuthority("operator", []byte("testbed-authority")),
	}
	tb.Bank = netsim.NewHost(HostBank, AddrBank)
	tb.Client = netsim.NewHost(HostClient, AddrClient)
	tb.Net.MustAdd(tb.Bank)
	tb.Net.MustAdd(tb.Client)

	names := make([]string, nSwitches)
	for i := range names {
		names[i] = fmt.Sprintf("sw%d", i+1)
	}
	for _, name := range names {
		// Every chain hop runs the plain forwarder (SwitchProgram would
		// map sw1/sw2 onto the standard testbed's firewall and
		// default-deny ACL roles, which the linear chain doesn't have).
		sw, err := pera.New(name, p4ir.NewForwarding("fwd_v1.p4"), cfg)
		if err != nil {
			return nil, err
		}
		sw.SetSink(tb.sink)
		tb.Switches[name] = sw
		tb.Net.MustAdd(sw)
		if err := tb.provision(name, sw); err != nil {
			return nil, err
		}
	}

	// Chain wiring: port 1 faces the bank side, port 2 the client side.
	tb.Net.MustLink(HostBank, netsim.HostPort, names[0], 1)
	for i := 0; i < nSwitches-1; i++ {
		tb.Net.MustLink(names[i], 2, names[i+1], 1)
	}
	tb.Net.MustLink(names[nSwitches-1], 2, HostClient, netsim.HostPort)

	if err := tb.Net.InstallRoutes([]*netsim.Host{tb.Bank, tb.Client}, "ipv4_fwd", "fwd", "port"); err != nil {
		return nil, err
	}
	// Re-provision table goldens now that routes are installed.
	refs := make([]appraiser.GoldenRef, 0, len(tb.Switches))
	for name, sw := range tb.Switches {
		gs, err := sw.Golden(evidence.DetailTables)
		if err != nil {
			return nil, err
		}
		refs = append(refs, appraiser.GoldenRef{Place: name, Target: gs[0].Target, Detail: gs[0].Detail, Value: gs[0].Value})
	}
	tb.Appraiser.SetGoldenBatch(refs)
	return tb, nil
}

// provision endorses one switch's AIK with the authority and installs
// its golden values at the appraiser — the shared provisioning step of
// both testbed constructors.
func (tb *Testbed) provision(name string, sw *pera.Switch) error {
	cert := tb.Authority.Issue(sw.RoT())
	if err := tb.Appraiser.RegisterAIK(tb.Authority.Public(), cert); err != nil {
		return err
	}
	gs, err := sw.Golden(evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		return err
	}
	refs := make([]appraiser.GoldenRef, len(gs))
	for i, g := range gs {
		refs[i] = appraiser.GoldenRef{Place: name, Target: g.Target, Detail: g.Detail, Value: g.Value}
	}
	tb.Appraiser.SetGoldenBatch(refs)
	return nil
}

// PathSwitchNames returns the PERA switches on the bank→client path, in
// path order — the hop sequence the observatory expects path traces and
// delivery traces to agree on.
func (tb *Testbed) PathSwitchNames() []string {
	var out []string
	for _, hop := range tb.PathHops() {
		if _, ok := tb.Switches[hop.Name]; ok {
			out = append(out, hop.Name)
		}
	}
	return out
}
