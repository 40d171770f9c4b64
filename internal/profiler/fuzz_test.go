package profiler

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"testing"
)

// FuzzParseProfile feeds hostile bytes to the pprof reader, which
// decodes profile artifacts an operator hands to `attestctl profile` or
// an incident bundle carries. It must never panic, the accessors the
// profiler calls on a parsed profile must not either, and a raw input
// must parse exactly as its gzip-compressed form does: the package has
// no encoder, so the gzip path is the round trip. Summarize, which
// attestctl runs on an operator's file, must not panic either. The seed
// corpus in testdata/fuzz/FuzzParseProfile (a labelled two-sample
// profile, raw and gzipped, one sample with no sample type, and
// malformed variants) also runs under plain go test.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(data)
		if err == nil {
			p.ValueIndex("cpu")
			for i := range p.Samples {
				p.LeafFunction(&p.Samples[i])
			}
			Summarize(data)
		}
		if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			return
		}
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write(data)
		zw.Close()
		pz, errz := ParseProfile(z.Bytes())
		if (err == nil) != (errz == nil) {
			t.Fatalf("raw parse error %v, gzipped parse error %v", err, errz)
		}
		if err == nil && !reflect.DeepEqual(p, pz) {
			t.Fatalf("raw and gzipped inputs parse differently:\n%+v\n%+v", p, pz)
		}
	})
}
