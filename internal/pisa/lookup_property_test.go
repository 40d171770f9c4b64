package pisa

import (
	"math/rand"
	"testing"

	"pera/internal/p4ir"
)

// Property: the pipeline's table lookup agrees with an independent
// reference implementation for random entry sets and packets, across
// exact, LPM and ternary key kinds.

// refLookup is a deliberately naive re-implementation of the selection
// rule: all keys must match; highest priority wins, then longest total
// prefix, then earliest installed.
func refLookup(decl *p4ir.Table, entries []p4ir.Entry, pkt interface{ Get(string) uint64 }) (p4ir.Entry, bool) {
	best := -1
	bestPrio, bestPfx := 0, -1
	for i, e := range entries {
		match := true
		pfx := 0
		for k, key := range decl.Keys {
			v := pkt.Get(key.Field)
			m := e.Matches[k]
			switch key.Kind {
			case p4ir.MatchExact:
				if v != m.Value {
					match = false
				}
			case p4ir.MatchLPM:
				bits := key.Bits
				if bits == 0 {
					bits = 64
				}
				if m.PrefixLen > bits {
					match = false
					break
				}
				shift := uint(bits - m.PrefixLen)
				if m.PrefixLen > 0 && v>>shift != m.Value>>shift {
					match = false
				}
				pfx += m.PrefixLen
			case p4ir.MatchTernary:
				if v&m.Mask != m.Value&m.Mask {
					match = false
				}
			}
			if !match {
				break
			}
		}
		if !match {
			continue
		}
		if best < 0 || e.Priority > bestPrio || (e.Priority == bestPrio && pfx > bestPfx) {
			best, bestPrio, bestPfx = i, e.Priority, pfx
		}
	}
	if best < 0 {
		return p4ir.Entry{}, false
	}
	return entries[best], true
}

func TestPropertyLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []p4ir.MatchKind{p4ir.MatchExact, p4ir.MatchLPM, p4ir.MatchTernary}
	for trial := 0; trial < 200; trial++ {
		// Random table shape: 1-3 keys of random kinds over small-value
		// fields (so collisions actually happen).
		nkeys := 1 + rng.Intn(3)
		prog := p4ir.NewForwarding("prop")
		tbl := prog.Ingress[0]
		tbl.Keys = nil
		fields := []string{"ip.src", "ip.dst", "tp.dport"}
		for k := 0; k < nkeys; k++ {
			tbl.Keys = append(tbl.Keys, p4ir.Key{
				Field: fields[k],
				Kind:  kinds[rng.Intn(len(kinds))],
				Bits:  16,
			})
		}
		tbl.MaxEntries = 64
		inst, err := Load(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Random entries.
		n := 1 + rng.Intn(12)
		var entries []p4ir.Entry
		for i := 0; i < n; i++ {
			e := p4ir.Entry{Priority: rng.Intn(4), Action: "drop"}
			for _, key := range tbl.Keys {
				m := p4ir.KeyMatch{Value: uint64(rng.Intn(8))}
				switch key.Kind {
				case p4ir.MatchLPM:
					m.PrefixLen = rng.Intn(17)
				case p4ir.MatchTernary:
					m.Mask = uint64(rng.Intn(16))
				}
				e.Matches = append(e.Matches, m)
			}
			if err := inst.InstallEntry("ipv4_fwd", e); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		}
		// Random packets.
		for p := 0; p < 20; p++ {
			pkt := NewPacket(nil, 1)
			for _, f := range fields {
				pkt.Set(f, uint64(rng.Intn(8)))
			}
			wantE, wantOK := refLookup(tbl, entries, pkt)
			ts := inst.tables["ipv4_fwd"]
			pkt.bind(inst.lay)
			snap := ts.snap.Load()
			got, gotOK := snap.lookup(ts.plan.keys, pkt)
			var gotE p4ir.Entry
			if gotOK {
				gotE = snap.entries[got]
			}
			if wantOK != gotOK {
				t.Fatalf("trial %d: hit disagreement (ref %v, got %v) pkt %s", trial, wantOK, gotOK, pkt)
			}
			if wantOK && (gotE.Priority != wantE.Priority || !matchesEqual(gotE.Matches, wantE.Matches)) {
				t.Fatalf("trial %d: selected different entries:\n ref %+v\n got %+v", trial, wantE, gotE)
			}
		}
	}
}

func matchesEqual(a, b []p4ir.KeyMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
