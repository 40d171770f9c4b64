package evidence

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"pera/internal/rot"
)

// Reading evidence as it was received. A switch extends and signs the
// in-band chain as bytes, and a RATS appraise request carries the same
// canonical encoding, so an appraiser can check the chain of custody on
// the bytes that were signed instead of on a tree it rebuilt from them.

// Node is one node of a canonical encoding, read in place: its byte
// fields alias the encoding, and only the fields of its Kind are set.
type Node struct {
	Kind                    Kind
	Nonce                   []byte
	Measurer, Target, Place []byte
	Detail                  Detail
	Value                   rot.Digest
	Claims                  []byte
	Digest                  rot.Digest
	Signer, Signature       []byte
}

// Cursor reads the nodes of a canonical encoding in preorder, the
// encoding's own order, so measurements come left to right. It trusts
// its input to be an encoding that Scan accepts or that AppendEncode
// wrote, and allocates nothing.
type Cursor struct {
	enc     []byte
	off     int
	pending int // subtrees still to read
}

// NewCursor returns a cursor at the root of enc.
func NewCursor(enc []byte) Cursor { return Cursor{enc: enc, pending: 1} }

// Next reads the next node into n and reports whether there was one.
func (c *Cursor) Next(n *Node) bool {
	if c.pending == 0 {
		return false
	}
	c.pending--
	*n = Node{Kind: Kind(c.enc[c.off])}
	c.off++
	switch n.Kind {
	case KindNonce:
		n.Nonce = c.field()
	case KindMeasurement:
		n.Measurer, n.Target, n.Place = c.field(), c.field(), c.field()
		n.Detail = Detail(c.enc[c.off])
		c.off += 1 + copy(n.Value[:], c.enc[c.off+1:])
		n.Claims = c.field()
	case KindHash:
		c.off += copy(n.Digest[:], c.enc[c.off:])
	case KindSig:
		n.Signer, n.Signature = c.field(), c.field()
		c.pending++
	case KindSeq, KindPar:
		c.pending += 2
	}
	return true
}

// field returns the length-prefixed field at the cursor, capacity-clamped.
func (c *Cursor) field() []byte {
	start := c.off + 4
	c.off = start + int(binary.BigEndian.Uint32(c.enc[c.off:]))
	return c.enc[start:c.off:c.off]
}

// sigNode is one sig node of an encoding: its signer, its signature and
// the encoding of the child it signs, all aliasing the encoding.
type sigNode struct {
	signer, sig, child []byte
	from               int    // where child starts in the encoding
	name               string // the signer, set as the node is verified
}

// sigWalk is VerifyEncoded's pooled working set.
type sigWalk struct {
	sigs []sigNode // in preorder, the order they are verified
	post []int     // indexes into sigs in path order
	open []openSig // the sig, seq and par nodes whose subtrees are open
	msg  []byte    // rot.SigPrefix‖message for a full verification
}

// openSig is a node whose subtree the walk has not finished: sig is its
// index in sigs (-1 for seq and par) and left the children still to end.
type openSig struct{ sig, left int }

var sigWalkPool = sync.Pool{New: func() any { return new(sigWalk) }}

// collect records enc's sig nodes in preorder, each with the exact byte
// range of the child it signs, and their path order: a signature after
// everything it covers, the order in which their subtrees end.
func (w *sigWalk) collect(enc []byte) {
	var n Node
	for c := NewCursor(enc); c.Next(&n); {
		switch n.Kind {
		case KindSig:
			w.open = append(w.open, openSig{sig: len(w.sigs), left: 1})
			w.sigs = append(w.sigs, sigNode{signer: n.Signer, sig: n.Signature, from: c.off})
			continue
		case KindSeq, KindPar:
			w.open = append(w.open, openSig{sig: -1, left: 2})
			continue
		}
		// A leaf ends here, and so does every subtree it completes.
		for len(w.open) > 0 {
			top := &w.open[len(w.open)-1]
			if top.left--; top.left > 0 {
				break
			}
			if i := top.sig; i >= 0 {
				w.sigs[i].child = enc[w.sigs[i].from:c.off]
				w.post = append(w.post, i)
			}
			w.open = w.open[:len(w.open)-1]
		}
	}
}

// VerifyEncoded checks every signature of enc, a canonical encoding that
// Scan accepts or that AppendEncode wrote, against keys, in one pass and
// in the encoding's order, so the first bad or unkeyed signature of the
// tree decides the error, as it would in the tree's own walk. Each sig
// node is verified over the exact bytes a signer signs
// (sigDomain‖signer‖0‖child, as SignEncoded builds them), which are read
// where they lie: the memo key is hashed over them in place, and only a
// signature the memo has not seen is copied into scratch for
// crypto/ed25519. A memo counts one hit per signature walked and one
// miss per signature it verified in full. A nil memo verifies every
// signature in full and counts nothing.
//
// It returns the number of signatures checked and how many of them were
// verified in full. When signers is non-nil and every signature verifies,
// *signers is set to the distinct signers in path order (a signature
// after everything it covers), in one allocation of exactly their number.
func (m *VerifyMemo) VerifyEncoded(enc []byte, keys KeyResolver, signers *[]string) (n, full int, err error) {
	w := sigWalkPool.Get().(*sigWalk)
	w.collect(enc)
	for i := range w.sigs {
		s := &w.sigs[i]
		s.name = Name(s.signer)
		pub, ok := keys.KeyFor(s.name)
		if !ok {
			err = fmt.Errorf("%w: %q", ErrUnknownKey, s.name)
			break
		}
		ok, fresh := m.verifySig(pub, s, w)
		if fresh {
			full++
		}
		if !ok {
			err = fmt.Errorf("%w: signer %q", ErrBadSignature, s.name)
			break
		}
		n++
	}
	if err == nil && signers != nil {
		*signers = w.pathSigners()
	}
	clear(w.sigs) // do not pin the encoding in the pool
	w.sigs, w.post, w.open = w.sigs[:0], w.post[:0], w.open[:0]
	sigWalkPool.Put(w)
	return n, full, err
}

// verifySig answers one sig node from the memo or verifies it in full,
// reporting the verdict and whether it ran crypto/ed25519.
func (m *VerifyMemo) verifySig(pub ed25519.PublicKey, s *sigNode, w *sigWalk) (ok, fresh bool) {
	var k memoKey
	if m != nil {
		mh := startKey(pub, s.sig)
		w.msg = appendSigPrefix(w.msg[:0], s.name)
		mh.h.Write(w.msg)
		mh.h.Write(s.child)
		k = mh.finish()
		m.hits.Add(1)
		if v, found := m.lookup(k); found {
			return v, false
		}
	}
	w.msg = append(appendSigPrefix(append(w.msg[:0], rot.SigPrefix...), s.name), s.child...)
	ok = len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, w.msg, s.sig)
	if m != nil {
		m.insert(k, ok)
	}
	return ok, true
}

// pathSigners returns the distinct signers in path order.
func (w *sigWalk) pathSigners() []string {
	var buf [8]string // most paths fit without growing
	found := buf[:0]
	for _, i := range w.post {
		if name := w.sigs[i].name; !slices.Contains(found, name) {
			found = append(found, name)
		}
	}
	if len(found) == 0 {
		return nil
	}
	return append(make([]string, 0, len(found)), found...)
}
