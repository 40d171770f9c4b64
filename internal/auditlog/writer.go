package auditlog

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"pera/internal/telemetry"
)

// The writer's queue and flush cadence.
const (
	// queueLen bounds the async emission queue. When the queue is full
	// the hot path drops the record and counts it
	// (pera_audit_dropped_total) rather than blocking the packet
	// pipeline.
	queueLen = 4096
	// flushEvery is the periodic flush/fsync cadence.
	flushEvery = 250 * time.Millisecond
)

// Options names a Writer's MAC key.
type Options struct {
	// KeyID names the MAC key in the ledger_open header so an offline
	// verifier knows which key to fetch. Defaults to "dev".
	KeyID string
	// Key is the 32-byte ledger MAC key (DeriveKey / rot.AuditKey). Nil
	// selects DevKey.
	Key []byte
}

// Writer is the append-only ledger writer. Emission is asynchronous: the
// instrumented hot path enqueues onto a bounded channel and a single
// background goroutine assigns sequence numbers, timestamps, computes the
// HMAC chain, and writes JSONL lines with periodic flush+fsync — so the
// packet path never takes the serialization or I/O cost, and chain order
// is total by construction.
//
// All methods are nil-safe, so components wire audit emission without
// guards, exactly like the flow tracer.
type Writer struct {
	ch    chan Record
	flush chan chan struct{}
	quit  chan struct{}
	done  chan struct{}

	key   []byte
	keyID string

	out   *bufio.Writer
	file  *os.File // non-nil when backed by a file (fsync target)
	owned io.Closer

	records atomic.Uint64
	dropped atomic.Uint64
	bytes   atomic.Uint64
	closed  atomic.Bool
}

// NewWriter starts a ledger writer over w. If w is an *os.File the
// periodic flush also fsyncs. The writer does not close w unless w was
// opened by Create.
func NewWriter(w io.Writer, opt Options) *Writer {
	if opt.Key == nil {
		opt.Key = DevKey()
	}
	if opt.KeyID == "" {
		opt.KeyID = "dev"
	}
	lw := &Writer{
		ch:    make(chan Record, queueLen),
		flush: make(chan chan struct{}),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		key:   opt.Key,
		keyID: opt.KeyID,
		out:   bufio.NewWriterSize(w, 64<<10),
	}
	if f, ok := w.(*os.File); ok {
		lw.file = f
	}
	go lw.run()
	return lw
}

// Create opens (truncating) a ledger file at path and starts a writer
// over it; Close closes the file.
func Create(path string, opt Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	w := NewWriter(f, opt)
	w.owned = f
	return w, nil
}

// Emit enqueues one record. It never blocks: when the queue is full the
// record is dropped and counted, keeping the attestation hot path
// allocation-light and latency-bounded. Seq, TS, Prev and MAC are
// assigned by the writer goroutine and may be left zero.
func (w *Writer) Emit(r Record) {
	if w == nil {
		return
	}
	if w.closed.Load() {
		w.dropped.Add(1)
		return
	}
	select {
	case w.ch <- r:
	default:
		w.dropped.Add(1)
	}
}

// StageOpened implements telemetry.StageSink: an envelope the ledger
// subscribes to (the appraisal) is recorded when it begins.
func (w *Writer) StageOpened(ev telemetry.StageEvent) {
	w.Emit(stageRecord(Event(ev.Stage), ev))
}

// StageEnded implements telemetry.StageSink: one record per stage, with
// an envelope that rendered a verdict recorded as the verdict.
func (w *Writer) StageEnded(ev telemetry.StageEvent) {
	e := Event(ev.Stage)
	if ev.Verdict != "" {
		e = EventVerdict
	}
	w.Emit(stageRecord(e, ev))
}

func stageRecord(e Event, ev telemetry.StageEvent) Record {
	r := Record{
		Event: e, Place: ev.Place, Flow: ev.Flow, Nonce: ev.Nonce,
		Policy: ev.Policy, Target: ev.Target, Detail: ev.Detail,
		Verdict: ev.Verdict, DurNS: int64(ev.Dur), Note: ev.Note,
	}
	if ev.Prov.Clause != "" {
		p := ev.Prov
		r.Prov = &p
	}
	return r
}

// run is the single writer goroutine: it owns the chain state, so links
// are computed over a total order without any hot-path locking. Because
// it is the only sealer, all sealing scratch — the keyed HMAC state, the
// JSON body buffer, the line buffer and the hex scratch for the prev
// pointer — lives here and is reused record to record, so steady-state
// sealing costs one string allocation per record (the Prev locator)
// plus whatever encoding/json allocates, instead of a fresh HMAC,
// body and line buffer each time.
func (w *Writer) run() {
	defer close(w.done)
	var prev [sha256.Size]byte
	copy(prev[:], genesis(w.key))
	seq := uint64(0)
	ticker := time.NewTicker(flushEvery)
	defer ticker.Stop()

	mac := hmac.New(sha256.New, w.key)
	var (
		body    bytes.Buffer
		line    []byte
		hexTmp  [2 * sha256.Size]byte
		linkTmp [sha256.Size]byte
	)
	enc := json.NewEncoder(&body)

	write := func(r Record) {
		r.Seq = seq
		if r.TS == 0 {
			r.TS = time.Now().UnixNano()
		}
		// Stamp the flow's deterministic trace ID so ledger records join
		// the same trace the switches and appraisers record spans under.
		// "-" is the no-flow placeholder used by out-of-band events.
		if r.TraceID == "" && r.Flow != "" && r.Flow != "-" {
			r.TraceID = telemetry.TraceIDFromFlow(r.Flow)
		}
		// Truncated pointer: locator, not integrity.
		r.Prev = string(hex.AppendEncode(hexTmp[:0], prev[:8]))
		r.MAC = ""
		body.Reset()
		if err := enc.Encode(&r); err != nil {
			// Marshal failures are programming errors (all fields are
			// plain strings/ints); count the loss rather than crash the
			// pipeline.
			w.dropped.Add(1)
			return
		}
		b := bytes.TrimRight(body.Bytes(), "\n")
		mac.Reset()
		mac.Write(prev[:])
		mac.Write(b)
		link := mac.Sum(linkTmp[:0])
		// b ends in '}'; splice the mac in as the final member.
		line = append(line[:0], b[:len(b)-1]...)
		line = append(line, `,"mac":"`...)
		line = hex.AppendEncode(line, link)
		line = append(line, '"', '}', '\n')
		if _, err := w.out.Write(line); err != nil {
			w.dropped.Add(1)
			return
		}
		copy(prev[:], link)
		seq++
		w.records.Add(1)
		w.bytes.Add(uint64(len(line)))
	}

	write(Record{Event: EventLedgerOpen, Note: "schema=1 chain=hmac-sha256", Target: w.keyID})

	flush := func(sync bool) {
		w.out.Flush()
		if sync && w.file != nil {
			w.file.Sync()
		}
	}
	for {
		select {
		case r := <-w.ch:
			write(r)
		case <-ticker.C:
			flush(true)
		case ack := <-w.flush:
			// Synchronous flush (Flush): drain everything already
			// enqueued, then flush+fsync before acknowledging, so the
			// caller reads a ledger file that contains every record
			// emitted before the Flush call.
			for {
				select {
				case r := <-w.ch:
					write(r)
					continue
				default:
				}
				break
			}
			flush(true)
			close(ack)
		case <-w.quit:
			// Drain whatever made it into the queue before the close.
			for {
				select {
				case r := <-w.ch:
					write(r)
					continue
				default:
				}
				break
			}
			write(Record{
				Event: EventLedgerClose,
				Note:  fmt.Sprintf("records=%d dropped=%d", w.records.Load(), w.dropped.Load()),
			})
			flush(true)
			if w.owned != nil {
				w.owned.Close()
			}
			return
		}
	}
}

// Flush drains the emission queue and flushes (and fsyncs, for
// file-backed writers) synchronously: on return, every record emitted
// before the call is durably on disk. The incident bundler uses it to
// snapshot a ledger tail that includes the records of the incident
// itself rather than racing the 250ms ticker. Safe on a nil or closed
// writer (no-op).
func (w *Writer) Flush() {
	if w == nil || w.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case w.flush <- ack:
		<-ack
	case <-w.done:
		// Writer shut down between the closed check and the send.
	}
}

// Close drains the queue, writes the ledger_close terminator, flushes,
// fsyncs and (for Create-opened writers) closes the file. Emissions
// racing Close are dropped and counted. Safe to call more than once.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	if w.closed.CompareAndSwap(false, true) {
		close(w.quit)
	}
	<-w.done
	return nil
}

// Records returns the number of records written (including the header).
func (w *Writer) Records() uint64 {
	if w == nil {
		return 0
	}
	return w.records.Load()
}

// Dropped returns the number of records lost to a full queue (or to
// emission after Close) — the bounded-queue price of never blocking the
// packet path. Surfaced as pera_audit_dropped_total.
func (w *Writer) Dropped() uint64 {
	if w == nil {
		return 0
	}
	return w.dropped.Load()
}

// Bytes returns the total ledger bytes written.
func (w *Writer) Bytes() uint64 {
	if w == nil {
		return 0
	}
	return w.bytes.Load()
}

// Instrument publishes the writer's health through the telemetry
// registry: records/dropped/bytes counters and the live queue depth. All
// values are read lazily at scrape time. Nil-safe on both arguments.
func (w *Writer) Instrument(reg *telemetry.Registry) {
	if w == nil || reg == nil {
		return
	}
	reg.RegisterFunc("pera_audit_records_total", telemetry.KindCounter,
		func() float64 { return float64(w.records.Load()) })
	reg.RegisterFunc("pera_audit_dropped_total", telemetry.KindCounter,
		func() float64 { return float64(w.dropped.Load()) })
	reg.RegisterFunc("pera_audit_bytes_total", telemetry.KindCounter,
		func() float64 { return float64(w.bytes.Load()) })
	reg.RegisterFunc("pera_audit_queue_depth", telemetry.KindGauge,
		func() float64 { return float64(len(w.ch)) })
}
