package observatory

import (
	"testing"

	"pera/internal/evidence"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/pisa"
)

// hopSwitch is a forwarding PERA switch subscribed to c, sending every
// frame for address 200 out of port 2.
func hopSwitch(t *testing.T, c *Collector, name string, cfg pera.Config) *pera.Switch {
	t.Helper()
	sw, err := pera.New(name, p4ir.NewForwarding("fwd_v1.p4"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Instance().InstallEntry("ipv4_fwd", p4ir.Entry{
		Matches: []p4ir.KeyMatch{{Value: 200}},
		Action:  "fwd", Params: map[string]uint64{"port": 2},
	}); err != nil {
		t.Fatal(err)
	}
	sw.Subscribe(c)
	return sw
}

// TestSwitchHopRows drives one frame through real switches subscribed
// to a collector: sw1 attests the policy's unguarded obligation and
// skips its guarded one (the frame goes to port 443, the guard wants
// 80); sw2 verifies the chain and its sampler never fires; sw3 cannot
// verify the chain (it trusts no key) and drops the frame. The trace
// holds one row per switch, in path order, and ends at the hop that
// dropped the frame.
func TestSwitchHopRows(t *testing.T) {
	c := New("collector")
	chained := pera.Config{InBand: true, Composition: evidence.Chained}
	sw1 := hopSwitch(t, c, "sw1", chained)
	cfg2 := chained
	cfg2.VerifyIncoming = evidence.KeyMap{"sw1": sw1.RoT().Public()}
	cfg2.Sampler = evidence.NewSampler(evidence.SamplerConfig{Mode: evidence.SampleEveryN, N: 1 << 62})
	sw2 := hopSwitch(t, c, "sw2", cfg2)
	cfg3 := chained
	cfg3.VerifyIncoming = evidence.KeyMap{}
	sw3 := hopSwitch(t, c, "sw3", cfg3)

	pol := &pera.Policy{ID: 1, Nonce: []byte("n"), Obls: []pera.Obligation{
		{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true, Appraiser: "Appraiser"},
		{Guards: []pera.Guard{{Field: "tp.dport", Value: 80}}, Claims: []evidence.Detail{evidence.DetailTables}},
	}}
	inner, err := pisa.IPFrame(sw1.Instance().Program(), 100, 200, 40000, 443, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	frame := pera.WrapFrame(pol, inner)
	for _, sw := range []*pera.Switch{sw1, sw2, sw3} {
		outs, err := sw.Receive(1, frame)
		if err != nil {
			t.Fatalf("%s: %v", sw.Name(), err)
		}
		if len(outs) == 0 {
			if sw != sw3 {
				t.Fatalf("%s dropped the frame", sw.Name())
			}
			break
		}
		frame = outs[0].Frame
	}

	s := c.Snapshot()
	if s.Frames != 1 || len(s.Paths) != 1 || s.Paths[0].Flow != "6e" {
		t.Fatalf("frames %d, paths %+v", s.Frames, s.Paths)
	}
	hops := s.Paths[0].Hops
	if len(hops) != 3 || hops[0].Place != "sw1" || hops[1].Place != "sw2" || hops[2].Place != "sw3" {
		t.Fatalf("hops: %+v", hops)
	}
	h1, h2, h3 := hops[0], hops[1], hops[2]
	if h1.Verified() || !h1.Attested() || h1.GuardRejects != 1 || h1.SampleSkips != 0 ||
		h1.SignNS == 0 || h1.TotalNS < h1.SignNS || h1.EvBytes == 0 {
		t.Fatalf("sw1 row: %+v", h1)
	}
	if !h2.Verified() || h2.VerifyNS == 0 || h2.Attested() || h2.GuardRejects != 1 || h2.SampleSkips != 1 || h2.EvBytes != 0 {
		t.Fatalf("sw2 row: %+v", h2)
	}
	if h3.Verified() || h3.VerifyNS == 0 || h3.Attested() || h3.EvBytes != 0 {
		t.Fatalf("sw3 row: %+v", h3)
	}
	if st := sw2.Stats(); st.GuardRejects != uint64(h2.GuardRejects) || st.SampleSkips != uint64(h2.SampleSkips) {
		t.Fatalf("sw2 counters %+v disagree with its row %+v", st, h2)
	}
	if len(s.Links) != 2 || s.Links[0].From != "sw1" || s.Links[1].To != "sw3" || s.Links[0].EvBytes != 0 {
		t.Fatalf("links: %+v", s.Links)
	}

	// A frame sw1's pipeline drops (no route to address 300) closes its
	// hop too: its trace ends there and no row is left open.
	pol.Nonce = []byte("m")
	unrouted, err := pisa.IPFrame(sw1.Instance().Program(), 100, 300, 40000, 443, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if outs, err := sw1.Receive(1, pera.WrapFrame(pol, unrouted)); err != nil || len(outs) != 0 {
		t.Fatalf("unrouted frame: %d emissions, %v", len(outs), err)
	}
	if s := c.Snapshot(); s.Frames != 2 || s.Paths[0].Flow != "6d" || len(s.Paths[0].Hops) != 1 || len(c.pending) != 0 {
		t.Fatalf("after a pipeline drop: %+v, %d rows open", s.Paths[0], len(c.pending))
	}
}
