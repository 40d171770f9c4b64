package appraiser

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"

	"pera/internal/rot"
)

// Batched certification. The paper's Appraiser runs `appraise -> certify
// -> !` on every result, and the `!` (an Ed25519 signature) is most of
// what a memo-answered appraisal costs. A pool worker that has decided
// several results back to back certifies them with one signature over
// the RFC 6962 tree hash of their certificate messages:
//
//	leaf      = SHA-256(0x00 ‖ certMessage(c))
//	node      = SHA-256(0x01 ‖ left ‖ right)
//	signature = Sign("PERA-RESULT-BATCH-V1\x00" ‖ u32 size ‖ root)
//
// Each certificate carries its leaf index, the tree size and its audit
// path (Certificate.Batch), so it still verifies on its own: the verifier
// rebuilds the root as RFC 9162 §2.1.3.2 does and checks the one
// signature. The 0x00/0x01 prefixes keep a leaf from passing for an
// interior node, and the signed size pins the tree's shape.

// maxBatch caps how many results one signature certifies, bounding both
// a batch's audit paths (at most 4 digests) and how long its first
// result waits for the batch's signature.
const maxBatch = 16

// batchMagic opens the message a batch signature signs.
const batchMagic = "PERA-RESULT-BATCH-V1\x00"

// BatchProof places a certificate in a batch certified by one signature:
// the certificate is leaf Index of Size, and Path holds the sibling
// hashes from that leaf up to the root, nearest first (RFC 9162's
// inclusion path).
type BatchProof struct {
	Index uint32
	Size  uint32
	Path  []rot.Digest
}

// pathLen is the length of the RFC 9162 inclusion path of leaf index in
// a tree of size leaves (index < size): one digest per level below the
// point where the paths to index and to the last leaf split, plus one
// per left subtree above it.
func pathLen(index, size uint32) int {
	inner := bits.Len32(index ^ (size - 1))
	return inner + bits.OnesCount32(index>>inner)
}

// leafHash is c's RFC 6962 leaf hash, built in scratch, which it returns
// grown for reuse.
func leafHash(scratch []byte, c *Certificate) (rot.Digest, []byte) {
	scratch = appendCertFields(append(append(scratch[:0], 0x00), certMagic...), c)
	return sha256.Sum256(scratch), scratch
}

// nodeHash is RFC 6962's interior node hash.
func nodeHash(left, right *rot.Digest) rot.Digest {
	var b [1 + 2*rot.DigestSize]byte
	b[0] = 0x01
	copy(b[1:], left[:])
	copy(b[1+rot.DigestSize:], right[:])
	return sha256.Sum256(b[:])
}

// appendBatchMessage appends what a batch signature signs.
func appendBatchMessage(b []byte, size uint32, root rot.Digest) []byte {
	b = binary.BigEndian.AppendUint32(append(b, batchMagic...), size)
	return append(b, root[:]...)
}

// treeHash returns the RFC 6962 tree hash of leaves and appends to each
// leaf's proof path its sibling at every level, nearest first.
func treeHash(leaves []rot.Digest, proofs []BatchProof) rot.Digest {
	n := len(leaves)
	if n == 1 {
		return leaves[0]
	}
	k := 1 << (bits.Len(uint(n-1)) - 1) // the largest power of two below n
	left := treeHash(leaves[:k], proofs[:k])
	right := treeHash(leaves[k:], proofs[k:])
	for i := range proofs[:k] {
		proofs[i].Path = append(proofs[i].Path, right)
	}
	for i := k; i < n; i++ {
		proofs[i].Path = append(proofs[i].Path, left)
	}
	return nodeHash(&left, &right)
}

// rootFromPath rebuilds the root that leaf and p commit to, following
// RFC 9162 §2.1.3.2. ok is false when p cannot be a proof of a batch: a
// size below 2, an index outside it, or a path longer or shorter than
// (index, size) calls for.
func rootFromPath(leaf rot.Digest, p *BatchProof) (root rot.Digest, ok bool) {
	if p.Size < 2 || p.Index >= p.Size {
		return root, false
	}
	fn, sn := p.Index, p.Size-1
	r := leaf
	for i := range p.Path {
		if sn == 0 {
			return root, false
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(&p.Path[i], &r)
			for fn&1 == 0 && fn != 0 {
				fn, sn = fn>>1, sn>>1
			}
		} else {
			r = nodeHash(&r, &p.Path[i])
		}
		fn, sn = fn>>1, sn>>1
	}
	return r, sn == 0
}

// batchScratch is a pool worker's certification working set, reused
// batch after batch.
type batchScratch struct {
	certs  []*Certificate
	leaves []rot.Digest
	buf    []byte
}

// certify signs the certificates a pool worker decided in ds as one
// batch (signBatch), then closes each envelope.
func (a *Appraiser) certify(ds []decision, s *batchScratch) {
	for i := range ds {
		if ds[i].cert != nil {
			s.certs = append(s.certs, ds[i].cert)
		}
	}
	if len(s.certs) > 0 {
		a.signBatch(s.certs, s)
	}
	clear(s.certs)
	s.certs = s.certs[:0]
	for i := range ds {
		ds[i].rec.Close(ds[i].stage)
	}
}

// signBatch certifies certs with one signature. A lone certificate is
// signed on its own, byte for byte as Appraise signs it. Two or more
// sign their Merkle root; their proofs, paths and signatures are each
// one allocation for the whole batch, cut so that no certificate's
// fields alias another's.
func (a *Appraiser) signBatch(certs []*Certificate, s *batchScratch) {
	if len(certs) == 1 {
		a.sign(certs[0])
		return
	}
	n := uint32(len(certs))
	total := 0
	for i := range n {
		total += pathLen(i, n)
	}
	proofs := make([]BatchProof, n)
	paths := make([]rot.Digest, total)
	s.leaves = s.leaves[:0]
	for i, c := range certs {
		var leaf rot.Digest
		leaf, s.buf = leafHash(s.buf, c)
		s.leaves = append(s.leaves, leaf)
		l := pathLen(uint32(i), n)
		proofs[i] = BatchProof{Index: uint32(i), Size: n, Path: paths[:0:l]}
		paths = paths[l:]
	}
	root := treeHash(s.leaves, proofs)
	s.buf = appendBatchMessage(s.buf[:0], n, root)
	sig := ed25519.Sign(a.key, s.buf)
	sigs := make([]byte, len(certs)*ed25519.SignatureSize)
	for i, c := range certs {
		c.Signature = sigs[:ed25519.SignatureSize:ed25519.SignatureSize]
		copy(c.Signature, sig)
		sigs = sigs[ed25519.SignatureSize:]
		c.Batch = &proofs[i]
	}
}
