package pera_test

import (
	"bytes"
	"fmt"
	"testing"

	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/observatory"
	"pera/internal/pera"
	"pera/internal/pisa"
	"pera/internal/usecases"
)

// A switch extends the in-band chain as bytes (see Switch.Receive). These
// tests walk frames over the UC1 path, bank → sw1 → sw2 → dpi → sw3 →
// client, and hold every hop's emitted frame to a reference built from
// trees: Pop, evidence.Seq, evidence.Sign, Push.

// chainPolicies are the obligation shapes the differential test covers;
// every obligation applies at every hop and carries no guards.
var chainPolicies = map[string][]pera.Obligation{
	"two-claim": {{
		Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
		SignEvidence: true, Appraiser: usecases.AppraiserName,
	}},
	"hashed": {{
		Claims:       []evidence.Detail{evidence.DetailProgram, evidence.DetailTables},
		HashEvidence: true, SignEvidence: true, Appraiser: usecases.AppraiserName,
	}},
	"signed-then-unsigned": {
		{Claims: []evidence.Detail{evidence.DetailProgram}, SignEvidence: true},
		{Claims: []evidence.Detail{evidence.DetailTables}},
	},
}

// referenceHop is what sw emits for frame in by the tree path: it pops
// in, applies each of the policy's obligations at sw as a tree, and
// pushes the result over out's inner frame. It also returns the bytes
// the chain grew by.
func referenceHop(t *testing.T, sw *pera.Switch, in, out []byte) ([]byte, int) {
	t.Helper()
	hdr, _, err := pera.Pop(in)
	if err != nil {
		t.Fatal(err)
	}
	_, inner, err := pera.Pop(out)
	if err != nil {
		t.Fatalf("%s emitted an unreadable frame: %v", sw.Name(), err)
	}
	ev := hdr.Evidence
	for _, o := range hdr.Policy.Obls {
		if !o.AppliesAt(sw.Name()) {
			continue
		}
		var local *evidence.Evidence
		for i, d := range o.Claims {
			target, value, err := sw.ClaimValue(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := evidence.Measurement(sw.Name(), target, sw.Name(), d, value, nil)
			if i == 0 {
				local = m
			} else {
				local = evidence.Seq(local, m)
			}
		}
		if o.HashEvidence {
			local = evidence.Hash(local)
		}
		ev = evidence.Seq(ev, local)
		if o.SignEvidence {
			ev = evidence.Sign(sw.RoT(), ev)
		}
	}
	grown := evidence.EncodedSize(ev) - evidence.EncodedSize(hdr.Evidence)
	return pera.Push(&pera.Header{Policy: hdr.Policy, Evidence: ev}, inner), grown
}

// walkUC1 sends frame from the bank and returns what reaches the client,
// checking every switch hop against referenceHop, and each switch's
// hop as an observatory hop row: its place and the chain's growth.
func walkUC1(t *testing.T, tb *usecases.Testbed, frame []byte) ([]byte, []observatory.Hop) {
	t.Helper()
	var hops []observatory.Hop
	node, port, ok := tb.Net.Peer(usecases.HostBank, netsim.HostPort)
	for ok && node != usecases.HostClient {
		n, _ := tb.Net.Node(node)
		in := append([]byte(nil), frame...)
		emits, err := n.Receive(port, frame)
		if err != nil || len(emits) != 1 {
			t.Fatalf("%s: %d emissions, %v", node, len(emits), err)
		}
		if sw, isSwitch := tb.Switches[node]; isSwitch {
			want, grown := referenceHop(t, sw, in, emits[0].Frame)
			if !bytes.Equal(emits[0].Frame, want) {
				t.Fatalf("%s emitted\n%x\nthe tree path emits\n%x", node, emits[0].Frame, want)
			}
			hops = append(hops, observatory.Hop{Place: node, EvBytes: uint32(grown)})
		}
		frame = emits[0].Frame
		node, port, ok = tb.Net.Peer(node, emits[0].Port)
	}
	if !ok {
		t.Fatal("frame left the path before the client")
	}
	return frame, hops
}

// TestChainMatchesTreePath is the differential test of the byte-form
// chain: fresh and repeated nonces (a repeat is answered by the Sign
// memo), hop spans on and off (an observatory collector subscribed to
// every switch, whose hop rows must name each switch and the chain's
// growth there), the Verify stage on and off, and hashed, two-claim and
// unsigned obligations all emit the tree path's frames.
func TestChainMatchesTreePath(t *testing.T) {
	for _, spans := range []bool{false, true} {
		for _, verify := range []bool{false, true} {
			for name, obls := range chainPolicies {
				t.Run(fmt.Sprintf("spans=%v/verify=%v/%s", spans, verify, name), func(t *testing.T) {
					tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
					if err != nil {
						t.Fatal(err)
					}
					cfg := pera.Config{InBand: true, Composition: evidence.Chained}
					if verify {
						cfg.VerifyIncoming = tb.Keys()
					}
					col := observatory.New("collector")
					for _, sw := range tb.Switches {
						sw.SetConfig(cfg)
						if spans {
							sw.Subscribe(col)
						}
					}
					prog := usecases.SwitchProgram(usecases.SwEdge)
					for i, nonce := range []string{"fresh-1", "fresh-2", "fresh-2"} {
						inner, err := pisa.IPFrame(prog, usecases.AddrBank, usecases.AddrClient, uint64(40000+i), 443, []byte("payload"))
						if err != nil {
							t.Fatal(err)
						}
						pol := &pera.Policy{ID: 7, Nonce: []byte(nonce), Obls: obls}
						out, want := walkUC1(t, tb, pera.WrapFrame(pol, inner))
						hdr, _, err := pera.Pop(out)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := evidence.VerifySignatures(hdr.Evidence, tb.Keys()); err != nil {
							t.Fatalf("packet %d: delivered chain does not verify: %v", i, err)
						}
						if !spans {
							continue
						}
						paths := col.Snapshot().Paths
						if len(paths) != i+1 || len(paths[0].Hops) != len(want) {
							t.Fatalf("packet %d: %d traces, newest %+v; want %d, its hops %+v", i, len(paths), paths[0], i+1, want)
						}
						for j, h := range paths[0].Hops {
							if h.Place != want[j].Place || h.EvBytes != want[j].EvBytes || h.Verified() != verify {
								t.Fatalf("packet %d hop %d: %+v, want place %s, %d evidence bytes, verified %v",
									i, j, h, want[j].Place, want[j].EvBytes, verify)
							}
						}
					}
					if hits := tb.Switches[usecases.SwFirewall].Stats().SignMemoHits; hits != 1 {
						t.Fatalf("sw1 answered %d signs from its memo, want 1 (the repeated nonce)", hits)
					}
				})
			}
		}
	}
}

// TestReceiveOutputDoesNotAliasInput flips every byte of the input frame
// after Receive returns: inside Receive the chain may alias the frame,
// but the emitted frame may not.
func TestReceiveOutputDoesNotAliasInput(t *testing.T) {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := usecases.CompileUC1Policy(tb, []byte("alias-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := pisa.IPFrame(usecases.SwitchProgram(usecases.SwEdge), usecases.AddrBank, usecases.AddrClient, 40000, 443, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	frame := pera.WrapFrame(compiled.Policy, inner)
	for _, name := range []string{usecases.SwFirewall, usecases.SwACL} {
		emits, err := tb.Switches[name].Receive(1, frame)
		if err != nil || len(emits) != 1 {
			t.Fatalf("%s: %d emissions, %v", name, len(emits), err)
		}
		out := emits[0].Frame
		before := append([]byte(nil), out...)
		for i := range frame {
			frame[i] ^= 0xFF
		}
		if !bytes.Equal(out, before) {
			t.Fatalf("%s: emitted frame changed with its input", name)
		}
		frame = out
	}
}
