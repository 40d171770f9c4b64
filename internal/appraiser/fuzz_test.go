package appraiser

import (
	"bytes"
	"testing"
)

// FuzzDecodeCertificate feeds hostile bytes to the certificate decoder.
// It must never panic, and every input it accepts must re-encode byte for
// byte: both wire forms are canonical, so one certificate has one
// encoding and one signature check covers exactly the bytes that were
// sent. The seed corpus in testdata/fuzz/FuzzDecodeCertificate also runs
// under plain go test; its batched seeds are a valid batched
// certificate, a batch of one, an index past the size, and paths one
// digest shorter and longer than RFC 9162's.
func FuzzDecodeCertificate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCertificate(data)
		if err != nil {
			return
		}
		if enc := c.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, enc)
		}
	})
}
