package auditlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pera/internal/telemetry"
)

// writeLedger runs a writer over an in-memory buffer and returns the
// sealed bytes.
func writeLedger(t *testing.T, key []byte, records []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{Key: key, KeyID: "test"})
	for _, r := range records {
		w.Emit(r)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func sampleRecords() []Record {
	return []Record{
		{Event: EventClaimIssued, Place: "sw1", Nonce: "0a0b", Flow: "0a0b", Target: "program"},
		{Event: EventCacheMiss, Place: "sw1", Flow: "0a0b", Target: "program", Detail: "program"},
		{Event: EventSign, Place: "sw1", Flow: "0a0b", DurNS: 1200},
		{Event: EventVerify, Place: "sw2", Flow: "0a0b"},
		{Event: EventAppraise, Place: "appraiser", Flow: "0a0b", Nonce: "0a0b", Policy: "AP1"},
		{Event: EventVerdict, Place: "appraiser", Flow: "0a0b", Nonce: "0a0b", Policy: "AP1",
			Verdict: "PASS", Prov: &Provenance{Policy: "AP1", Clause: "appraise -> store(n)", Stage: "accept", Accept: true}},
	}
}

func TestWriterChainVerifies(t *testing.T) {
	key := DeriveKey([]byte("t1"))
	raw := writeLedger(t, key, sampleRecords())

	n, err := VerifyReader(bytes.NewReader(raw), key)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	// 6 emitted + ledger_open + ledger_close.
	if n != 8 {
		t.Fatalf("verified %d records, want 8", n)
	}

	recs, err := ReadRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if recs[0].Event != EventLedgerOpen || recs[0].Target != "test" {
		t.Fatalf("header = %+v, want ledger_open with key id", recs[0])
	}
	if last := recs[len(recs)-1]; last.Event != EventLedgerClose {
		t.Fatalf("tail = %+v, want ledger_close", last)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.TS == 0 {
			t.Fatalf("record %d missing timestamp", i)
		}
	}
	if recs[6].Prov == nil || !recs[6].Prov.Accept || recs[6].Prov.Clause == "" {
		t.Fatalf("verdict provenance not round-tripped: %+v", recs[6].Prov)
	}
}

func TestVerifyWrongKeyFailsAtGenesis(t *testing.T) {
	raw := writeLedger(t, DeriveKey([]byte("right")), sampleRecords())
	_, err := VerifyReader(bytes.NewReader(raw), DeriveKey([]byte("wrong")))
	var te *TamperError
	if !errors.As(err, &te) || te.Index != 0 {
		t.Fatalf("wrong key: got %v, want tamper at record 0", err)
	}
}

// TestTamperDetectedAtExactIndex flips every byte of the ledger, one at
// a time, and asserts verification fails at exactly the record that owns
// the flipped byte — including bytes inside prev pointers, macs, and the
// newline separators themselves.
func TestTamperDetectedAtExactIndex(t *testing.T) {
	key := DeriveKey([]byte("t2"))
	raw := writeLedger(t, key, sampleRecords())

	// Map each byte offset to the index of the line containing it.
	lineOf := make([]int, len(raw))
	line := 0
	for i, b := range raw {
		lineOf[i] = line
		if b == '\n' {
			line++
		}
	}
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		n, err := VerifyReader(bytes.NewReader(mut), key)
		if err == nil {
			t.Fatalf("offset %d (%q): flip not detected", off, raw[off])
		}
		var te *TamperError
		if !errors.As(err, &te) {
			t.Fatalf("offset %d: error %v is not a TamperError", off, err)
		}
		want := lineOf[off]
		// Flipping a '\n' can merge line i into line i+1 or split it;
		// either owner index is a faithful report.
		if te.Index != want && !(raw[off] == '\n' && te.Index == want+1) {
			t.Fatalf("offset %d (line %d): reported index %d (verified %d)", off, want, te.Index, n)
		}
	}
}

func TestVerifyTruncatedTail(t *testing.T) {
	key := DeriveKey([]byte("t3"))
	raw := writeLedger(t, key, sampleRecords())
	_, err := VerifyReader(bytes.NewReader(raw[:len(raw)-3]), key)
	var te *TamperError
	if !errors.As(err, &te) {
		t.Fatalf("truncation: got %v, want TamperError", err)
	}
}

func TestVerifyEmpty(t *testing.T) {
	_, err := VerifyReader(bytes.NewReader(nil), nil)
	var te *TamperError
	if !errors.As(err, &te) {
		t.Fatalf("empty ledger: got %v, want TamperError", err)
	}
}

// blockableWriter blocks every Write until released, so the writer
// goroutine stalls and the bounded queue fills.
type blockableWriter struct {
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (b *blockableWriter) Write(p []byte) (int, error) {
	<-b.release
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestWriterDropsWhenQueueFull(t *testing.T) {
	bw := &blockableWriter{release: make(chan struct{})}
	w := NewWriter(bw, Options{})
	// A record bigger than the 64KB bufio buffer forces its line through
	// the blocked underlying writer, stalling the goroutine so the
	// queue behind it fills with small records and the rest drop.
	const emitted = 1 + queueLen + 64
	w.Emit(Record{Event: EventSign, Place: "sw1", Note: strings.Repeat("x", 70<<10)})
	for i := 1; i < emitted; i++ {
		w.Emit(Record{Event: EventSign, Place: "sw1"})
	}
	if got := w.Dropped(); got == 0 {
		t.Fatalf("no drops counted with a stalled %d-slot queue after %d emits", queueLen, emitted)
	}
	close(bw.release)
	w.Close()
	kept := w.Records() - 2 // minus open/close markers
	if kept+w.Dropped() != emitted {
		t.Fatalf("kept %d + dropped %d != emitted %d", kept, w.Dropped(), emitted)
	}
	// Drops lose records, never chain integrity.
	bw.mu.Lock()
	raw := append([]byte(nil), bw.buf.Bytes()...)
	bw.mu.Unlock()
	if _, err := VerifyReader(bytes.NewReader(raw), DevKey()); err != nil {
		t.Fatalf("ledger with drops fails verify: %v", err)
	}
}

func TestEmitAfterCloseCountsDrop(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.Close()
	w.Emit(Record{Event: EventSign})
	if w.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", w.Dropped())
	}
	w.Close() // idempotent
}

func TestNilWriterSafe(t *testing.T) {
	var w *Writer
	w.Emit(Record{Event: EventSign})
	w.Instrument(telemetry.NewRegistry())
	if err := w.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if w.Records() != 0 || w.Dropped() != 0 || w.Bytes() != 0 {
		t.Fatal("nil counters non-zero")
	}
}

func TestCreateVerifyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, r := range sampleRecords() {
		w.Emit(r)
	}
	w.Close()
	n, err := VerifyFile(path, nil)
	if err != nil {
		t.Fatalf("VerifyFile: %v", err)
	}
	if n != 8 {
		t.Fatalf("verified %d, want 8", n)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("ledger file empty: %v", err)
	}
}

func TestQueryFilters(t *testing.T) {
	raw := writeLedger(t, nil, sampleRecords())
	recs, err := ReadRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 8},
		{"nonce", Query{Nonce: "0a0b"}, 3},
		{"flow", Query{Flow: "0a0b"}, 6},
		{"place", Query{Place: "appraiser"}, 2},
		{"event", Query{Event: "verdict"}, 1},
		{"verdict", Query{Verdict: "PASS"}, 1},
		{"limit", Query{Flow: "0a0b", Limit: 2}, 2},
		{"compound", Query{Place: "sw1", Event: "sign"}, 1},
		{"none", Query{Place: "nowhere"}, 0},
	}
	for _, c := range cases {
		if got := len(c.q.Filter(recs)); got != c.want {
			t.Errorf("%s: %d records, want %d", c.name, got, c.want)
		}
	}
	// Time-range filtering against real writer timestamps.
	mid := recs[4].TS
	since := Query{Since: mid}.Filter(recs)
	until := Query{Until: mid}.Filter(recs)
	if len(since)+len(until) < len(recs) {
		t.Fatalf("since(%d) + until(%d) lost records vs %d", len(since), len(until), len(recs))
	}
	for _, r := range since {
		if r.TS < mid {
			t.Fatalf("since returned TS %d < %d", r.TS, mid)
		}
	}
}

func TestExplainTimeline(t *testing.T) {
	raw := writeLedger(t, nil, sampleRecords())
	recs, _ := ReadRecords(bytes.NewReader(raw))
	tl := Explain(recs, "0a0b")
	if len(tl) != 6 {
		t.Fatalf("timeline has %d records, want 6", len(tl))
	}
	wantOrder := []Event{EventClaimIssued, EventCacheMiss, EventSign, EventVerify, EventAppraise, EventVerdict}
	for i, r := range tl {
		if r.Event != wantOrder[i] {
			t.Fatalf("timeline[%d] = %s, want %s", i, r.Event, wantOrder[i])
		}
	}
	var out bytes.Buffer
	FormatTimeline(&out, tl)
	text := out.String()
	for _, want := range []string{"claim_issued", "verdict=PASS", "accepted by AP1/accept", "appraise -> store(n)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline rendering missing %q:\n%s", want, text)
		}
	}
	var empty bytes.Buffer
	FormatTimeline(&empty, nil)
	if !strings.Contains(empty.String(), "no records") {
		t.Fatal("empty timeline not reported")
	}
}

func TestInstrument(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.Instrument(reg)
	w.Emit(Record{Event: EventSign})
	w.Close()
	snap := reg.Snapshot()
	if v := snap.Value("pera_audit_records_total"); v < 3 { // open + sign + close
		t.Fatalf("records_total = %v, want >= 3", v)
	}
	if _, ok := snap.Get("pera_audit_dropped_total"); !ok {
		t.Fatal("dropped_total not registered")
	}
	if snap.Value("pera_audit_bytes_total") <= 0 {
		t.Fatal("bytes_total not counted")
	}
}

func TestDeriveKeyDeterministicAndDomainSeparated(t *testing.T) {
	if !bytes.Equal(DeriveKey([]byte("s")), DeriveKey([]byte("s"))) {
		t.Fatal("DeriveKey not deterministic")
	}
	if bytes.Equal(DeriveKey([]byte("a")), DeriveKey([]byte("b"))) {
		t.Fatal("DeriveKey ignores secret")
	}
	if len(DevKey()) != 32 {
		t.Fatalf("DevKey length %d", len(DevKey()))
	}
}
