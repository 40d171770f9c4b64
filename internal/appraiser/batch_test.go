package appraiser

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rats"
	"pera/internal/rot"
)

// TestSingleCertificateGolden pins a lone certificate's bytes: Appraise
// and the rats appraise handler issue, for a PASS and a FAIL, exactly
// the certificates testdata/single_certificates.golden holds, which
// were issued before the pool certified in batches.
func TestSingleCertificateGolden(t *testing.T) {
	r := attesterRoT()
	a := newAppraiser(r)
	pass, err := a.Appraise("sw1", goodEvidence(r, []byte("golden-pass")), []byte("golden-pass"))
	if err != nil {
		t.Fatal(err)
	}
	bad := evidence.Sign(r, evidence.Seq(evidence.Measurement("attest", "firewall_v5.p4", "sw1",
		evidence.DetailProgram, rot.Sum([]byte("rogue-bytes")), nil), evidence.Nonce([]byte("golden-fail"))))
	fail, err := a.Appraise("sw1", bad, []byte("golden-fail"))
	if err != nil {
		t.Fatal(err)
	}
	resp := a.Handler()(&rats.Message{Type: rats.MsgAppraise, Session: 1, Nonce: []byte("golden-rats"),
		Claims: []string{"sw1"}, Body: evidence.Encode(goodEvidence(r, []byte("golden-rats")))})
	if resp.Type != rats.MsgResult {
		t.Fatalf("handler: %+v", resp)
	}
	got := fmt.Sprintf("appraise_pass %s\nappraise_fail %s\nhandler_pass %s\n",
		hex.EncodeToString(pass.Encode()), hex.EncodeToString(fail.Encode()), hex.EncodeToString(resp.Body))
	want, err := os.ReadFile("testdata/single_certificates.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("single certificates differ from testdata/single_certificates.golden\ngot:\n%swant:\n%s", got, want)
	}
}

// batchOf certifies n distinct certificates with one signature, as a
// pool worker does; tag keeps two batches of one size apart.
func batchOf(a *Appraiser, n int, tag string) []*Certificate {
	certs := make([]*Certificate, n)
	for i := range certs {
		certs[i] = &Certificate{
			Issuer:         a.Name(),
			Subject:        "sw" + strconv.Itoa(i),
			Nonce:          []byte(tag + strconv.Itoa(i)),
			EvidenceDigest: rot.Sum([]byte(tag + "chain" + strconv.Itoa(i))),
			Verdict:        i%3 != 0,
			Reason:         "reason " + strconv.Itoa(i),
			Serial:         uint64(100*n + i),
		}
	}
	a.signBatch(certs, &batchScratch{})
	return certs
}

// clone deep-copies a certificate so tampering leaves the batch intact.
func clone(c *Certificate) *Certificate {
	d := *c
	d.Nonce = bytes.Clone(c.Nonce)
	d.Signature = bytes.Clone(c.Signature)
	if c.Batch != nil {
		p := *c.Batch
		p.Path = append([]rot.Digest(nil), c.Batch.Path...)
		d.Batch = &p
	}
	return &d
}

// TestBatchCertificateTamper: over batch sizes 2 to 16, every
// certificate of a batch verifies on its own under the appraiser's key,
// and fails once any certified field, its index, the batch size, one
// path digest or one signature byte changes; so does a certificate
// carrying another batch's proof, an interior node passed off as a leaf
// and a path of any other length than RFC 9162's for (index, size),
// which the decoder refuses too.
func TestBatchCertificateTamper(t *testing.T) {
	a := New("batch-appraiser", []byte("batch-test"))
	pub := a.Public()
	for n := 2; n <= maxBatch; n++ {
		t.Run("size="+strconv.Itoa(n), func(t *testing.T) {
			certs, other := batchOf(a, n, "a"), batchOf(a, n, "b")
			for i, c := range certs {
				if err := VerifyCertificate(pub, c); err != nil {
					t.Fatalf("cert %d: %v", i, err)
				}
				if p := c.Batch; p == nil || p.Index != uint32(i) || p.Size != uint32(n) ||
					len(p.Path) != pathLen(p.Index, p.Size) || cap(p.Path) != len(p.Path) {
					t.Fatalf("cert %d proof %+v", i, c.Batch)
				}
				dec, err := DecodeCertificate(c.Encode())
				if err != nil || !bytes.Equal(dec.Encode(), c.Encode()) || VerifyCertificate(pub, dec) != nil {
					t.Fatalf("cert %d wire round trip: %v", i, err)
				}
				if !bytes.HasPrefix(c.Encode(), []byte(batchWireMagic)) {
					t.Fatalf("cert %d: batched wire form lacks its magic", i)
				}

				tampers := map[string]func(*Certificate){
					"issuer":    func(d *Certificate) { d.Issuer += "x" },
					"subject":   func(d *Certificate) { d.Subject += "x" },
					"nonce":     func(d *Certificate) { d.Nonce = append(d.Nonce, 0) },
					"digest":    func(d *Certificate) { d.EvidenceDigest[7] ^= 1 },
					"verdict":   func(d *Certificate) { d.Verdict = !d.Verdict },
					"reason":    func(d *Certificate) { d.Reason += "." },
					"serial":    func(d *Certificate) { d.Serial++ },
					"index":     func(d *Certificate) { d.Batch.Index = (d.Batch.Index + 1) % d.Batch.Size },
					"size up":   func(d *Certificate) { d.Batch.Size++ },
					"size down": func(d *Certificate) { d.Batch.Size-- },
					"signature": func(d *Certificate) { d.Signature[i%len(d.Signature)] ^= 0x20 },
					"other batch's proof": func(d *Certificate) {
						d.Batch = clone(other[i]).Batch
					},
					"other batch's proof and signature": func(d *Certificate) {
						o := clone(other[i])
						d.Batch, d.Signature = o.Batch, o.Signature
					},
					"single form": func(d *Certificate) { d.Batch = nil },
					"long path":   func(d *Certificate) { d.Batch.Path = append(d.Batch.Path, d.Batch.Path[0]) },
					"short path":  func(d *Certificate) { d.Batch.Path = d.Batch.Path[:len(d.Batch.Path)-1] },
				}
				for j := range c.Batch.Path {
					tampers["path digest "+strconv.Itoa(j)] = func(d *Certificate) { d.Batch.Path[j][j] ^= 0x80 }
				}
				for name, tamper := range tampers {
					d := clone(c)
					tamper(d)
					if err := VerifyCertificate(pub, d); !errors.Is(err, ErrBadCertificate) {
						t.Fatalf("cert %d with its %s changed: verify %v", i, name, err)
					}
					if strings.HasSuffix(name, " path") {
						if _, err := DecodeCertificate(d.Encode()); !errors.Is(err, ErrBadCertificate) {
							t.Fatalf("cert %d with a %s decoded: %v", i, name, err)
						}
					}
				}
				if err := VerifyCertificate(pub, c); err != nil {
					t.Fatalf("cert %d after the tampered copies: %v", i, err)
				}
			}
			interiorNodeAsLeaf(t, a, certs)
		})
	}
}

// interiorNodeAsLeaf passes the interior node over a batch's leaves 0
// and 1 off as a leaf. As a bare hash at index 0 of a tree half as deep
// it rebuilds the signed root (index 0's path only ever hashes on the
// right), but it cannot be presented that way: a leaf is hashed with
// 0x00, so the node's preimage as leaf content leads elsewhere, and the
// signature names the batch's size, which the shallower tree does not
// have. A batch of two has no such tree: a one-leaf batch is refused.
func interiorNodeAsLeaf(t *testing.T, a *Appraiser, certs []*Certificate) {
	t.Helper()
	c := certs[0]
	l0, _ := leafHash(nil, c)
	l1 := c.Batch.Path[0]
	node := nodeHash(&l0, &l1)
	root, ok := rootFromPath(l0, c.Batch)
	if !ok {
		t.Fatal("leaf 0 does not rebuild its root")
	}
	shallow := &BatchProof{Index: 0, Size: 1 << (len(c.Batch.Path) - 1), Path: c.Batch.Path[1:]}
	if len(certs) == 2 {
		if _, ok := rootFromPath(node, shallow); ok {
			t.Fatal("a one-leaf batch proof was accepted")
		}
		return
	}
	if got, ok := rootFromPath(node, shallow); !ok || got != root {
		t.Fatalf("the bare node did not rebuild the root: %v", ok)
	}
	preimage := sha256.Sum256(append(append([]byte{0x00}, l0[:]...), l1[:]...))
	if got, ok := rootFromPath(preimage, shallow); ok && got == root {
		t.Fatal("the node's preimage, hashed as a leaf, rebuilt the root")
	}
	if ed25519.Verify(a.Public(), appendBatchMessage(nil, shallow.Size, root), c.Signature) {
		t.Fatal("the batch signature verified for a tree of another size")
	}
}

// TestPathLen: pathLen agrees with the paths treeHash builds for every
// leaf of every batch size up to 64.
func TestPathLen(t *testing.T) {
	for n := 2; n <= 64; n++ {
		leaves := make([]rot.Digest, n)
		proofs := make([]BatchProof, n)
		treeHash(leaves, proofs)
		for i := range proofs {
			if got, want := pathLen(uint32(i), uint32(n)), len(proofs[i].Path); got != want {
				t.Fatalf("pathLen(%d, %d) = %d, treeHash built %d", i, n, got, want)
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSignBatchAllocations: a batch's proofs, paths and signatures cost
// one allocation each, whatever its size; its one signature is computed
// on the stack. A lone certificate costs two: its message and its
// signature.
func TestSignBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	a := New("batch-appraiser", []byte("batch-test"))
	for _, n := range []int{1, 2, 5, maxBatch} {
		certs := batchOf(a, n, "alloc")
		s := &batchScratch{}
		a.signBatch(certs, s) // grow the scratch
		want := 3.0
		if n == 1 {
			want = 2
		}
		if allocs := testing.AllocsPerRun(20, func() { a.signBatch(certs, s) }); allocs != want {
			t.Fatalf("size %d: signBatch allocated %.0f times, want %.0f", n, allocs, want)
		}
	}
}
