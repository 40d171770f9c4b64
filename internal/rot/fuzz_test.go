package rot

import (
	"bytes"
	"testing"
)

// FuzzDecodeQuote feeds hostile bytes to the quote decoder, which reads
// the Claims bytes of every hardware measurement off the wire. It must
// never panic, and every input it accepts must re-encode byte for byte.
// The seed corpus in testdata/fuzz/FuzzDecodeQuote also runs under plain
// go test.
func FuzzDecodeQuote(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuote(data)
		if err != nil {
			return
		}
		if enc := EncodeQuote(q); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, enc)
		}
	})
}
