package rot

import (
	"bytes"
	"testing"
)

// FuzzDecodeQuote feeds hostile bytes to the quote decoder, which reads
// the Claims bytes of every hardware measurement off the wire. It must
// never panic, and every input it accepts must re-encode byte for byte.
// The in-place reader the appraiser asks first must agree with it: the
// same inputs accepted, the same error text for the rest, and the same
// fields, read without copying. The seed corpus in
// testdata/fuzz/FuzzDecodeQuote also runs under plain go test.
func FuzzDecodeQuote(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		w, werr := ReadQuote(in)
		q, err := DecodeQuote(data)
		if (werr == nil) != (err == nil) || err != nil && werr.Error() != err.Error() {
			t.Fatalf("ReadQuote(%x) = %v, DecodeQuote = %v", data, werr, err)
		}
		if err != nil {
			return
		}
		if enc := EncodeQuote(q); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, enc)
		}
		if string(w.Platform) != q.Platform || !bytes.Equal(w.Nonce, q.Nonce) ||
			!bytes.Equal(w.Signature, q.Signature) || w.PCRDigest != q.PCRDigest ||
			w.Boots != q.Boots || w.Counter != q.Counter {
			t.Fatalf("ReadQuote(%x) = %+v, DecodeQuote = %+v", data, w, q)
		}
		// Read in place: flipping every input byte flips every field
		// read from it.
		for i := range in {
			in[i] ^= 0xff
		}
		for _, f := range [][2][]byte{{w.Platform, []byte(q.Platform)}, {w.Nonce, q.Nonce}, {w.Signature, q.Signature}} {
			if len(f[1]) > 0 && bytes.Equal(f[0], f[1]) {
				t.Fatalf("ReadQuote(%x) copied a field it should read in place", data)
			}
		}
	})
}
