package harness

import (
	"fmt"

	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/pera"
	"pera/internal/usecases"
	"pera/internal/workload"
)

// UC3 efficacy experiment: while under attack, a gatekeeper drops traffic
// lacking path-based evidence. This measures the claim quantitatively —
// how much legitimate (attested, allowlisted) traffic survives and how
// much attack traffic leaks, as the attack share of the offered load
// grows.

// DDoSRow is one point of the UC3 efficacy curve.
type DDoSRow struct {
	AttackShare    float64 // fraction of offered packets that are attack junk
	LegitOffered   int
	LegitDelivered int
	AttackOffered  int
	AttackLeaked   int
}

// LegitGoodput is the fraction of legitimate traffic delivered.
func (r DDoSRow) LegitGoodput() float64 {
	if r.LegitOffered == 0 {
		return 0
	}
	return float64(r.LegitDelivered) / float64(r.LegitOffered)
}

// AttackLeakRate is the fraction of attack traffic that got through.
func (r DDoSRow) AttackLeakRate() float64 {
	if r.AttackOffered == 0 {
		return 0
	}
	return float64(r.AttackLeaked) / float64(r.AttackOffered)
}

// RunDDoS offers `total` packets with the given attack share to a
// gatekeeper in attack mode. Legitimate packets carry verified chained
// evidence with an allowlisted path tag; attack packets are junk (no
// header) or replayed-then-tampered headers, mixed evenly.
func RunDDoS(total int, attackShare float64) (*DDoSRow, error) {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		return nil, err
	}
	gate := usecases.NewGatekeeper("gate", 1, 2, tb.Keys())
	gate.SetUnderAttack(true)

	// One sanctioned attested flow establishes the allowlisted tag and a
	// template frame for legit traffic.
	hdr, err := usecases.SendUC1(tb, []byte("ddos"), true, 1, []byte("legit"))
	if err != nil {
		return nil, err
	}
	gate.AllowTag(appraiser.PathTag(hdr.Evidence))
	legitFrame := tb.Client.Received()[0]

	// A tampered variant of the legit frame: the attacker replays the
	// header but cannot re-sign after modification.
	tampered := append([]byte(nil), legitFrame...)
	tampered[len(tampered)/2] ^= 0xFF

	gen := workload.New(workload.Config{Flows: 8, Pattern: workload.Skewed, Seed: 11})
	row := &DDoSRow{AttackShare: attackShare}
	// Error-accumulator interleaving hits the share exactly for any
	// ratio (Bresenham-style), attack packets spread through the run.
	acc := 0.0
	for i := 0; i < total; i++ {
		acc += attackShare
		attack := acc >= 1
		if attack {
			acc -= 1
		}
		var frame []byte
		if attack {
			row.AttackOffered++
			if i%2 == 0 {
				frame = []byte(fmt.Sprintf("junk-%d-%d", i, gen.NextFlow().SPort))
			} else {
				frame = tampered
			}
		} else {
			row.LegitOffered++
			frame = legitFrame
		}
		outs, err := gate.Receive(1, frame)
		if err != nil {
			return nil, err
		}
		delivered := len(outs) == 1
		if attack && delivered {
			row.AttackLeaked++
		}
		if !attack && delivered {
			row.LegitDelivered++
		}
	}
	return row, nil
}

// RunDDoSSweep covers attack shares from 0 to 0.9.
func RunDDoSSweep(total int) ([]DDoSRow, error) {
	var rows []DDoSRow
	for _, share := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		row, err := RunDDoS(total, share)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}
