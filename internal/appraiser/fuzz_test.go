package appraiser

import (
	"bytes"
	"testing"
)

// FuzzDecodeCertificate feeds hostile bytes to the certificate decoder.
// It must never panic, and every input it accepts must re-encode byte for
// byte: the wire form is canonical, so one certificate has one encoding
// and one signature check covers exactly the bytes that were sent. The
// seed corpus in testdata/fuzz/FuzzDecodeCertificate also runs under
// plain go test.
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
