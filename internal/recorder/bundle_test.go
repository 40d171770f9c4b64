package recorder

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pera/internal/auditlog"
)

func testCapture(t *testing.T) capture {
	t.Helper()
	return capture{
		history: []Series{{ID: "m", Kind: "gauge", Points: []Point{{TS: sec(1), V: 7}}}},
		config:  []byte(`{"flag":"value"}`),
		anomaly: []byte(`{"rule":"robust-z"}`),
	}
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trig := Trigger{Kind: "anomaly", Rule: RuleRobustZ, Place: "sw2", Reason: "test", TSNS: sec(42)}
	path, err := writeBundle(BundlerConfig{Dir: dir}.withDefaults(), "svc", trig, testCapture(t))
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(path)
	if !strings.HasPrefix(name, bundlePrefix) || !strings.HasSuffix(name, bundleSuffix) {
		t.Fatalf("bundle name %q", name)
	}

	b, err := OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Schema != ManifestSchema || b.Manifest.Service != "svc" {
		t.Fatalf("manifest header: %+v", b.Manifest)
	}
	if b.Manifest.Trigger.Place != "sw2" || b.Manifest.Trigger.Rule != RuleRobustZ {
		t.Fatalf("trigger: %+v", b.Manifest.Trigger)
	}
	for _, want := range []string{"history.json", "config.json", "anomaly.json", "goroutines.txt", "heap.pprof"} {
		if _, ok := b.Files[want]; !ok {
			t.Fatalf("bundle missing %s (has %v)", want, fileNames(b))
		}
	}
	if n, err := b.Verify(nil); err != nil || n != 0 {
		t.Fatalf("verify: n=%d err=%v", n, err)
	}

	// The content address in the file name matches the archive bytes: a
	// re-written file under the same name would be detectable. Here we
	// check the fragment parses out as the list ID.
	infos := ListBundles(dir)
	if len(infos) != 1 {
		t.Fatalf("ListBundles = %d", len(infos))
	}
	if !strings.Contains(name, infos[0].ID) {
		t.Fatalf("ID %q not part of name %q", infos[0].ID, name)
	}
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fileNames(b *Bundle) []string {
	var out []string
	for n := range b.Files {
		out = append(out, n)
	}
	return out
}

func TestBundleVerifyDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	path, err := writeBundle(BundlerConfig{Dir: dir}.withDefaults(), "svc",
		Trigger{Kind: "manual", TSNS: sec(1)}, testCapture(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in an archived file: the manifest digest must catch it.
	b.Files["history.json"][0] ^= 0xff
	if _, err := b.Verify(nil); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tampered file passed verify: %v", err)
	}
	b.Files["history.json"][0] ^= 0xff
	// A smuggled extra file fails too.
	b.Files["planted.txt"] = []byte("x")
	if _, err := b.Verify(nil); err == nil || !strings.Contains(err.Error(), "not in manifest") {
		t.Fatalf("planted file passed verify: %v", err)
	}
	delete(b.Files, "planted.txt")
	// A deleted file fails.
	delete(b.Files, "config.json")
	if _, err := b.Verify(nil); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing file passed verify: %v", err)
	}
}

func TestBundleLedgerTail(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "trail.jsonl")
	w, err := auditlog.Create(ledger, auditlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A ledger longer than tailRecords exercises the mid-chain anchor.
	for i := 0; i < tailRecords+20; i++ {
		w.Emit(auditlog.Record{Event: auditlog.EventVerdict, Place: "sw1", Verdict: "PASS"})
	}
	w.Flush()

	cap := testCapture(t)
	cap.ledgerPath = ledger
	cfg := BundlerConfig{Dir: dir}.withDefaults()
	path, err := writeBundle(cfg, "svc", Trigger{Kind: "alert", TSNS: sec(9)}, cap)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	b, err := OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Ledger == nil {
		t.Fatal("manifest carries no ledger info")
	}
	if b.Manifest.Ledger.Records != tailRecords {
		t.Fatalf("tail records = %d, want %d", b.Manifest.Ledger.Records, tailRecords)
	}
	if b.Manifest.Ledger.Start != b.Manifest.Ledger.Total-tailRecords {
		t.Fatalf("tail start = %d of %d", b.Manifest.Ledger.Start, b.Manifest.Ledger.Total)
	}
	n, err := b.Verify(nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if n != tailRecords {
		t.Fatalf("verified ledger records = %d, want %d", n, tailRecords)
	}
	// Tamper with one tail line: the HMAC chain must break.
	tail := b.Files["ledger_tail.jsonl"]
	idx := strings.Index(string(tail), "PASS")
	if idx < 0 {
		t.Fatal("no verdict in tail")
	}
	// Keep JSON valid (PASS -> PAXS) so the failure is the chain, not parsing.
	tamper := append([]byte(nil), tail...)
	tamper[idx+2] = 'X'
	b.Files["ledger_tail.jsonl"] = tamper
	// Fix the file digest so only the chain check can object.
	for i := range b.Manifest.Files {
		if b.Manifest.Files[i].Name == "ledger_tail.jsonl" {
			b.Manifest.Files[i].SHA256 = sha256hex(tamper)
		}
	}
	if _, err := b.Verify(nil); err == nil {
		t.Fatal("tampered ledger tail passed chain verification")
	}
}

func TestBundleLedgerErrorCaptured(t *testing.T) {
	// A corrupt ledger must not abort the capture: the error itself is
	// evidence and lands in the bundle.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not a ledger\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cap := testCapture(t)
	cap.ledgerPath = bad
	path, err := writeBundle(BundlerConfig{Dir: dir}.withDefaults(), "svc",
		Trigger{Kind: "manual", TSNS: sec(1)}, cap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Ledger != nil {
		t.Fatal("corrupt ledger produced ledger info")
	}
	if _, ok := b.Files["ledger_error.txt"]; !ok {
		t.Fatalf("no ledger_error.txt in %v", fileNames(b))
	}
	if _, err := b.Verify(nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// entry is one tar entry for tarGz: its bytes, then zeros more zero
// bytes.
type entry struct {
	name  string
	data  []byte
	zeros int64
}

// tarGz builds a gzip'd tar of the entries in order.
func tarGz(t *testing.T, entries ...entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	tw := tar.NewWriter(zw)
	chunk := make([]byte, 1<<20)
	for _, e := range entries {
		if err := tw.WriteHeader(&tar.Header{Name: e.name, Mode: 0o644, Size: int64(len(e.data)) + e.zeros}); err != nil {
			t.Fatal(err)
		}
		tw.Write(e.data)
		for n := e.zeros; n > 0; n -= int64(len(chunk)) {
			tw.Write(chunk[:min(n, int64(len(chunk)))])
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenBundleCapsDecompressedSize: an archive of zeros four times the
// cap, in the manifest or spread over entries, is refused with an error
// naming the cap, after allocating at most about twice the cap.
func TestOpenBundleCapsDecompressedSize(t *testing.T) {
	if raceEnabled {
		t.Skip("compressing the zeros takes about 17s under -race; the reader runs on one goroutine")
	}
	spread := []entry{{name: ManifestName, data: []byte("{}")}}
	for i := 0; i < 8; i++ {
		spread = append(spread, entry{name: fmt.Sprintf("part%d", i), zeros: maxBundleBytes / 2})
	}
	for name, entries := range map[string][]entry{
		"manifest": {{name: ManifestName, zeros: 4 * maxBundleBytes}},
		"spread":   spread,
	} {
		path := filepath.Join(t.TempDir(), "incident.tar.gz")
		if err := os.WriteFile(path, tarGz(t, entries...), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenBundle(path)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxBundleBytes)) {
			t.Fatalf("%s: OpenBundle = %v, want an error naming the %d-byte cap", name, err, maxBundleBytes)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxBundleBytes {
			t.Fatalf("%s: allocated %d bytes, want at most about %d", name, got, 2*maxBundleBytes)
		}
	}
}

func TestEnforceBudget(t *testing.T) {
	dir := t.TempDir()
	// Three fake bundles, 100 bytes each, oldest first.
	paths := []string{
		filepath.Join(dir, "incident-1-aaaaaaaaaaaa.tar.gz"),
		filepath.Join(dir, "incident-2-bbbbbbbbbbbb.tar.gz"),
		filepath.Join(dir, "incident-3-cccccccccccc.tar.gz"),
	}
	for i, p := range paths {
		if err := os.WriteFile(p, make([]byte, 100), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := time.Unix(int64(1000+i), 0)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if n := enforceBudget(dir, 250); n != 1 {
		t.Fatalf("deleted = %d, want 1", n)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatal("oldest bundle survived the budget")
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("newer bundle deleted: %v", err)
		}
	}
	if n := enforceBudget(dir, 1<<20); n != 0 {
		t.Fatalf("budget not exceeded but deleted %d", n)
	}
}

func TestListBundlesNewestFirst(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"incident-1-aaaaaaaaaaaa.tar.gz", "incident-2-bbbbbbbbbbbb.tar.gz"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := time.Unix(int64(1000+i), 0)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Noise that must be ignored.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "incident-3-dddddddddddd.tar.gz.tmp"), []byte("x"), 0o644)
	infos := ListBundles(dir)
	if len(infos) != 2 {
		t.Fatalf("ListBundles = %d, want 2", len(infos))
	}
	if infos[0].ID != "bbbbbbbbbbbb" || infos[1].ID != "aaaaaaaaaaaa" {
		t.Fatalf("order: %q then %q, want newest first", infos[0].ID, infos[1].ID)
	}
	if ListBundles(filepath.Join(dir, "missing")) != nil {
		t.Fatal("missing dir should list nil")
	}
}
