package recorder

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzOpenBundle feeds hostile bytes to the incident-bundle reader that
// `attestctl incident` runs on operator-supplied archives. It must never
// panic; an archive it accepts must have the manifest as its first
// entry, and verifying what it accepted must not panic either. The seed
// corpus in testdata/fuzz/FuzzOpenBundle (a bundle the recorder writes,
// a truncated gzip, a non-manifest first entry, bad manifest JSON and a
// duplicate entry name) also runs under plain go test.
func FuzzOpenBundle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := readBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted an archive that does not gunzip: %v", err)
		}
		hdr, err := tar.NewReader(zr).Next()
		if err != nil {
			t.Fatalf("accepted an archive with no first entry: %v", err)
		}
		if hdr.Name != ManifestName {
			t.Fatalf("accepted an archive whose first entry is %q", hdr.Name)
		}
		b.Verify(nil)
	})
}
