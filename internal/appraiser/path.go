package appraiser

import (
	"pera/internal/evidence"
	"pera/internal/rot"
)

// Path evidence for UC2 (an authentication factor) and UC3 (an
// authorization tag): PathTag condenses what appraised chained path
// evidence says about the path — which places processed the traffic,
// running what — into one digest.

// PathTag derives an authorization tag from appraised path evidence: a
// digest over the ordered (place, target, value) triples of its
// measurements. Two flows that traversed the same attested processing get
// the same tag, giving UC3's FlowTags-style decisions an evidential basis.
func PathTag(ev *evidence.Evidence) rot.Digest {
	var b []byte
	for _, m := range evidence.Measurements(ev) {
		b = append(b, m.Place...)
		b = append(b, 0)
		b = append(b, m.Target...)
		b = append(b, 0)
		b = append(b, byte(m.Detail))
		b = append(b, m.Value[:]...)
	}
	return rot.Sum(b)
}
