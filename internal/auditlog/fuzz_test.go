package auditlog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadRecords feeds hostile bytes to the ledger reader behind
// `attestctl audit` and the incident bundles. It must never panic, and
// the records it accepts must survive a round trip: encoded the way the
// writer encodes them (encoding/json, one object per line) and read
// again, they come back unchanged. The seed corpus in
// testdata/fuzz/FuzzReadRecords (a sealed ledger, a record with
// provenance, blank lines and malformed lines) also runs under plain go
// test.
func FuzzReadRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted record %+v does not encode: %v", r, err)
			}
			enc.Write(line)
			enc.WriteByte('\n')
		}
		again, err := ReadRecords(&enc)
		if err != nil {
			t.Fatalf("re-encoded records do not read: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("records changed over a round trip:\n%+v\n%+v", recs, again)
		}
	})
}
