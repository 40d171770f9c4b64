package recorder

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pera/internal/auditlog"
)

// Bundle archive layout: a gzip'd tar whose first entry is
// manifest.json; every later entry is listed in the manifest with its
// SHA-256, and the ledger tail carries the chain link needed to
// re-verify it standalone. The archive file name embeds the SHA-256 of
// the finished .tar.gz bytes — the bundle's content address — so a
// bundle can never be silently edited in place.
const (
	ManifestName = "manifest.json"
	// ManifestSchema versions the manifest layout for offline readers.
	ManifestSchema = 1

	bundlePrefix = "incident-"
	bundleSuffix = ".tar.gz"
)

// Trigger records what caused a bundle.
type Trigger struct {
	Kind   string `json:"kind"` // anomaly | alert | manual
	Rule   string `json:"rule,omitempty"`
	Place  string `json:"place,omitempty"`
	Reason string `json:"reason,omitempty"`
	TSNS   int64  `json:"ts_ns"`
}

// ManifestFile is one archived file's identity.
type ManifestFile struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// LedgerInfo locates the bundled ledger tail within the full chain.
// PrevLink is the full chain link preceding the tail's first record;
// with the MAC key it re-verifies the tail without the rest of the
// ledger (auditlog.VerifyTailBytes).
type LedgerInfo struct {
	Total    int    `json:"total"`   // records in the full ledger at snapshot
	Start    int    `json:"start"`   // index of the tail's first record
	Records  int    `json:"records"` // records in the tail
	PrevLink string `json:"prev_link"`
	KeyID    string `json:"key_id,omitempty"`
}

// Manifest is the first tar entry of every bundle.
type Manifest struct {
	Schema    int            `json:"schema"`
	Service   string         `json:"service"`
	CreatedNS int64          `json:"created_ns"`
	Trigger   Trigger        `json:"trigger"`
	Files     []ManifestFile `json:"files"`
	Ledger    *LedgerInfo    `json:"ledger,omitempty"`
}

// The bundler's disk budget and ledger tail.
const (
	// diskBudget is the byte budget for a bundle directory: after each
	// write, oldest bundles are deleted until the total fits.
	diskBudget = 64 << 20
	// tailRecords bounds the bundled ledger tail.
	tailRecords = 512
)

// BundlerConfig tunes incident capture.
type BundlerConfig struct {
	// Dir is where bundles land. Empty disables bundling (history and
	// detection still run).
	Dir string
	// Debounce is the minimum spacing between bundles (default 30s): a
	// burst of anomalies from one incident yields one bundle.
	Debounce time.Duration
	// Key verifies and re-anchors the ledger tail (nil = DevKey).
	Key []byte
	// KeyID names the key in the manifest (default "dev").
	KeyID string
}

func (c BundlerConfig) withDefaults() BundlerConfig {
	if c.Debounce <= 0 {
		c.Debounce = 30 * time.Second
	}
	if c.KeyID == "" {
		c.KeyID = "dev"
	}
	return c
}

// capture is everything the bundler snapshots, gathered by the Recorder
// at trigger time so the bundler stays decoupled from the live types.
type capture struct {
	history     []Series // coarse + fine dump
	otlp        []byte   // OTLP/JSON trace export
	observatory []byte   // collector snapshot JSON
	coverage    []byte   // watchdog coverage JSON
	alerts      []byte   // watchdog alerts JSON
	config      []byte   // flattened flag/config JSON
	anomaly     []byte   // the triggering event JSON
	profCPU     []byte   // newest captured CPU profile (pprof binary)
	profMutex   []byte   // newest captured mutex profile (pprof binary)
	profDiff    []byte   // profiler baseline diff JSON
	ledgerPath  string   // flushed ledger file to tail
}

// writeBundle builds, content-addresses and atomically publishes one
// bundle. Returns the final file path.
func writeBundle(cfg BundlerConfig, service string, trig Trigger, cap capture) (string, error) {
	type section struct {
		name string
		data []byte
	}
	var sections []section
	add := func(name string, data []byte) {
		if len(data) > 0 {
			sections = append(sections, section{name, data})
		}
	}

	hist, err := json.MarshalIndent(struct {
		Series []Series `json:"series"`
	}{cap.history}, "", " ")
	if err != nil {
		return "", fmt.Errorf("recorder: marshal history: %w", err)
	}
	add("history.json", hist)
	add("trace_otlp.json", cap.otlp)
	add("observatory.json", cap.observatory)
	add("coverage.json", cap.coverage)
	add("alerts.json", cap.alerts)
	add("config.json", cap.config)
	add("anomaly.json", cap.anomaly)

	// Runtime state: goroutine dump (text) and heap profile (pprof
	// binary) — the "what was the process doing" half of the bundle.
	var gor bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&gor, 1)
	}
	add("goroutines.txt", gor.Bytes())
	var heap bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		p.WriteTo(&heap, 0)
	}
	add("heap.pprof", heap.Bytes())

	// Continuous-profiler capture: the newest CPU and mutex windows and
	// the stage/function diff against the pinned baseline — the "why did
	// it get slow" half (only present when a profiler is wired).
	add("cpu.pprof", cap.profCPU)
	add("mutex.pprof", cap.profMutex)
	add("top_diff.json", cap.profDiff)

	// Chain-verified ledger tail. A verification failure is itself part
	// of the incident: record the error in the bundle rather than
	// aborting the capture.
	var ledger *LedgerInfo
	if cap.ledgerPath != "" {
		tail, err := auditlog.VerifyTailFile(cap.ledgerPath, cfg.Key, tailRecords)
		if err != nil {
			add("ledger_error.txt", []byte(err.Error()+"\n"))
		} else {
			add("ledger_tail.jsonl", tail.Raw)
			ledger = &LedgerInfo{
				Total:    tail.Total,
				Start:    tail.Start,
				Records:  tail.Total - tail.Start,
				PrevLink: hex.EncodeToString(tail.PrevLink),
				KeyID:    cfg.KeyID,
			}
		}
	}

	man := Manifest{
		Schema:    ManifestSchema,
		Service:   service,
		CreatedNS: trig.TSNS,
		Trigger:   trig,
		Ledger:    ledger,
	}
	for _, s := range sections {
		sum := sha256.Sum256(s.data)
		man.Files = append(man.Files, ManifestFile{
			Name: s.name, Size: int64(len(s.data)), SHA256: hex.EncodeToString(sum[:]),
		})
	}
	manBytes, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return "", fmt.Errorf("recorder: marshal manifest: %w", err)
	}

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	writeEntry := func(name string, data []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)),
			ModTime: time.Unix(0, trig.TSNS).UTC(),
		}); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := writeEntry(ManifestName, manBytes); err != nil {
		return "", fmt.Errorf("recorder: write manifest: %w", err)
	}
	for _, s := range sections {
		if err := writeEntry(s.name, s.data); err != nil {
			return "", fmt.Errorf("recorder: write %s: %w", s.name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return "", fmt.Errorf("recorder: close tar: %w", err)
	}
	if err := gz.Close(); err != nil {
		return "", fmt.Errorf("recorder: close gzip: %w", err)
	}

	sum := sha256.Sum256(buf.Bytes())
	name := fmt.Sprintf("%s%d-%s%s",
		bundlePrefix, time.Unix(0, trig.TSNS).Unix(), hex.EncodeToString(sum[:6]), bundleSuffix)
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("recorder: %w", err)
	}
	final := filepath.Join(cfg.Dir, name)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("recorder: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("recorder: %w", err)
	}
	return final, nil
}

// enforceBudget deletes oldest bundles in dir until the total size fits
// maxBytes. Returns how many were deleted.
func enforceBudget(dir string, maxBytes int64) int {
	infos := ListBundles(dir)
	var total int64
	for _, bi := range infos {
		total += bi.Size
	}
	deleted := 0
	for i := len(infos) - 1; i >= 0 && total > maxBytes; i-- { // oldest last
		if os.Remove(infos[i].Path) == nil {
			total -= infos[i].Size
			deleted++
		}
	}
	return deleted
}

// BundleInfo is one on-disk bundle, newest first in ListBundles output.
type BundleInfo struct {
	Path      string `json:"path"`
	ID        string `json:"id"` // content-address fragment from the file name
	Size      int64  `json:"size"`
	CreatedNS int64  `json:"created_ns"` // file mtime
}

// ListBundles returns the bundles in dir, newest first.
func ListBundles(dir string) []BundleInfo {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []BundleInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, bundlePrefix) || !strings.HasSuffix(name, bundleSuffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		id := strings.TrimSuffix(name, bundleSuffix)
		if i := strings.LastIndexByte(id, '-'); i >= 0 {
			id = id[i+1:]
		}
		out = append(out, BundleInfo{
			Path: filepath.Join(dir, name), ID: id,
			Size: fi.Size(), CreatedNS: fi.ModTime().UnixNano(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedNS > out[j].CreatedNS })
	return out
}

// Bundle is an opened incident archive.
type Bundle struct {
	Path     string
	Manifest Manifest
	Files    map[string][]byte
}

// maxBundleBytes caps a bundle's decompressed size. The largest bundle
// the recorder writes holds a full history store (512 series of 300
// fine and 360 coarse points, about 22 MB of JSON), a 4,096-span trace
// export (about 1 MB), a 512-record ledger tail and the newest
// profiles; 64 MiB is past that, and is the bundler's disk budget.
const maxBundleBytes = 64 << 20

// OpenBundle reads and parses one bundle archive: a gzip'd tar with the
// manifest first, each entry name once, and at most maxBundleBytes (64
// MiB) once decompressed.
func OpenBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	defer f.Close()
	b, err := readBundle(f)
	if err != nil {
		return nil, fmt.Errorf("recorder: %s: %w", path, err)
	}
	b.Path = path
	return b, nil
}

// errBundleTooBig refuses an archive past maxBundleBytes.
var errBundleTooBig = fmt.Errorf("archive exceeds %d bytes decompressed", maxBundleBytes)

// readBundle parses a bundle archive from r, loading every entry whole.
// Both the archive and the entries it unpacks to (a sparse entry unpacks
// to more than it takes) may hold at most maxBundleBytes.
func readBundle(r io.Reader) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	lim := &io.LimitedReader{R: gz, N: maxBundleBytes + 1}
	tr := tar.NewReader(lim)
	left := int64(maxBundleBytes)
	b := &Bundle{Files: make(map[string][]byte)}
	for first := true; ; first = false {
		hdr, err := tr.Next()
		var data []byte
		if err == nil {
			if hdr.Size > left {
				return nil, errBundleTooBig
			}
			left -= hdr.Size
			data = make([]byte, hdr.Size)
			if _, rerr := io.ReadFull(tr, data); rerr != nil {
				err = fmt.Errorf("read %s: %w", hdr.Name, rerr)
			}
		}
		switch {
		case lim.N == 0:
			return nil, errBundleTooBig
		case err == io.EOF && first:
			return nil, errors.New("empty archive")
		case err == io.EOF:
			return b, nil
		case err != nil:
			return nil, err
		case first && hdr.Name != ManifestName:
			return nil, fmt.Errorf("first entry is %q, want %s", hdr.Name, ManifestName)
		case first:
			if err := json.Unmarshal(data, &b.Manifest); err != nil {
				return nil, fmt.Errorf("parse manifest: %w", err)
			}
		case hdr.Name == ManifestName || b.Files[hdr.Name] != nil: // stored entries are never nil
			return nil, fmt.Errorf("duplicate entry %q", hdr.Name)
		default:
			b.Files[hdr.Name] = data
		}
	}
}

// Verify checks every archived file against its manifest digest and,
// when the bundle carries a ledger tail, re-verifies the tail's HMAC
// chain from the manifest's prev link under key (nil = DevKey). Returns
// the number of verified ledger records.
func (b *Bundle) Verify(key []byte) (int, error) {
	for _, mf := range b.Manifest.Files {
		data, ok := b.Files[mf.Name]
		if !ok {
			return 0, fmt.Errorf("recorder: %s: %s listed in manifest but missing", b.Path, mf.Name)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != mf.SHA256 {
			return 0, fmt.Errorf("recorder: %s: %s digest mismatch", b.Path, mf.Name)
		}
	}
	for name := range b.Files {
		if !b.inManifest(name) {
			return 0, fmt.Errorf("recorder: %s: %s present but not in manifest", b.Path, name)
		}
	}
	if b.Manifest.Ledger == nil {
		return 0, nil
	}
	prev, err := hex.DecodeString(b.Manifest.Ledger.PrevLink)
	if err != nil {
		return 0, fmt.Errorf("recorder: %s: bad prev link: %w", b.Path, err)
	}
	n, err := auditlog.VerifyTailBytes(b.Files["ledger_tail.jsonl"], key, prev)
	if err != nil {
		return n, fmt.Errorf("recorder: %s: ledger tail: %w", b.Path, err)
	}
	return n, nil
}

func (b *Bundle) inManifest(name string) bool {
	for _, mf := range b.Manifest.Files {
		if mf.Name == name {
			return true
		}
	}
	return false
}
