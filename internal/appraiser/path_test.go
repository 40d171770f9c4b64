package appraiser

import (
	"testing"

	"pera/internal/evidence"
	"pera/internal/rot"
)

func hopMeasurement(place, target string, val string) *evidence.Evidence {
	return evidence.Measurement("attest", target, place, evidence.DetailProgram, rot.Sum([]byte(val)), nil)
}

// pathEvidence builds chained evidence: each hop signs the accumulated
// chain, like a PERA path in chained composition.
func pathEvidence(t *testing.T) *evidence.Evidence {
	t.Helper()
	ev := evidence.SeqAll(
		hopMeasurement("sw1", "firewall_v5.p4", "fw"),
		hopMeasurement("sw2", "ACL_v3.p4", "acl"),
		hopMeasurement("sw3", "fwd_v1.p4", "fwd"),
	)
	return ev
}

func TestPathTagStableAndDiscriminating(t *testing.T) {
	a := pathEvidence(t)
	b := pathEvidence(t)
	if PathTag(a) != PathTag(b) {
		t.Fatal("same path, different tags")
	}
	// A path missing the ACL hop gets a different tag.
	c := evidence.Seq(
		hopMeasurement("sw1", "firewall_v5.p4", "fw"),
		hopMeasurement("sw3", "fwd_v1.p4", "fwd"),
	)
	if PathTag(a) == PathTag(c) {
		t.Fatal("different paths share a tag")
	}
	// Order matters.
	d := evidence.SeqAll(
		hopMeasurement("sw2", "ACL_v3.p4", "acl"),
		hopMeasurement("sw1", "firewall_v5.p4", "fw"),
		hopMeasurement("sw3", "fwd_v1.p4", "fwd"),
	)
	if PathTag(a) == PathTag(d) {
		t.Fatal("reordered path shares a tag")
	}
}
