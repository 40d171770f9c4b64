package evidence

import (
	"crypto/ed25519"
	"fmt"
	"sync/atomic"

	"pera/internal/ed25519batch"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// Batch-verification counters, exported as pera_verify_batch_* metrics
// via InstrumentBatch. Package-global because batch verifiers are
// short-lived window objects; the counters outlive them.
var (
	batchBatches   atomic.Uint64 // windows flushed through the batch equation
	batchSigs      atomic.Uint64 // signatures verified in batches
	batchFallbacks atomic.Uint64 // windows re-verified per-item after a batch failure
	batchSkipped   atomic.Uint64 // signatures skipped because the memo already knew
	batchLastSize  atomic.Uint64 // size of the most recent window
)

// InstrumentBatch registers the batch-verification counters with reg.
func InstrumentBatch(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("pera_verify_batch_batches_total", telemetry.KindCounter,
		func() float64 { return float64(batchBatches.Load()) })
	reg.RegisterFunc("pera_verify_batch_sigs_total", telemetry.KindCounter,
		func() float64 { return float64(batchSigs.Load()) })
	reg.RegisterFunc("pera_verify_batch_fallbacks_total", telemetry.KindCounter,
		func() float64 { return float64(batchFallbacks.Load()) })
	reg.RegisterFunc("pera_verify_batch_memo_skips_total", telemetry.KindCounter,
		func() float64 { return float64(batchSkipped.Load()) })
	reg.RegisterFunc("pera_verify_batch_window_size", telemetry.KindGauge,
		func() float64 { return float64(batchLastSize.Load()) })
}

// BatchStats is a snapshot of the package batch counters, for tests and
// the benchmark harness.
type BatchStats struct {
	Batches, Sigs, Fallbacks, MemoSkips uint64
}

// ReadBatchStats returns the current counters.
func ReadBatchStats() BatchStats {
	return BatchStats{
		Batches:   batchBatches.Load(),
		Sigs:      batchSigs.Load(),
		Fallbacks: batchFallbacks.Load(),
		MemoSkips: batchSkipped.Load(),
	}
}

// BatchVerifier collects the signature nodes of one or more evidence
// chains and verifies them with a single Ed25519 batch equation
// (internal/ed25519batch), seeding the verdicts into a VerifyMemo. The
// appraisal logic itself is untouched: it re-walks the chain through
// VerifySignaturesMemo and consumes the seeded verdicts as memo hits, so
// a batched appraisal renders exactly the verdict a per-item appraisal
// would.
//
// When the batch equation fails — at least one signature in the window is
// bad — every gathered triple is re-verified individually with
// crypto/ed25519 (the standard library stays the ground truth for all
// rejections) and the per-item verdicts are seeded instead.
//
// A BatchVerifier is not safe for concurrent use; each batch runs on its
// own. Zero allocation in steady state: the message arena and
// item list are retained across Reset.
type BatchVerifier struct {
	memo  *VerifyMemo
	bv    *ed25519batch.Verifier
	arena []byte // rot.SigPrefix‖sigMessage, back to back
	items []batchSigRef
}

type batchSigRef struct {
	pub      ed25519.PublicKey
	sig      []byte
	off, end int // wire message bounds in arena (prefix included)
}

// NewBatchVerifier returns a verifier seeding verdicts into memo. The
// memo is the transport that hands batch results to the appraisal walk;
// it may be nil at construction (pooled verifiers are built idle) but
// must be set via Reset before Flush, or the batch work is wasted.
func NewBatchVerifier(memo *VerifyMemo) *BatchVerifier {
	return &BatchVerifier{memo: memo, bv: ed25519batch.NewVerifier()}
}

// Reset re-arms the verifier for a new window, optionally retargeting a
// different memo (nil keeps the current one).
func (b *BatchVerifier) Reset(memo *VerifyMemo) {
	if memo != nil {
		b.memo = memo
	}
	b.arena = b.arena[:0]
	b.items = b.items[:0]
}

// Pending returns the number of gathered, not-yet-flushed signatures.
func (b *BatchVerifier) Pending() int { return len(b.items) }

// Gather walks e and queues every signature node whose verdict the memo
// does not already know. Unknown signers fail fast with the same error
// the verification walk would produce; the caller typically ignores the
// error and lets appraisal render it, since Gather is an optimization
// pass, not a verdict.
func (b *BatchVerifier) Gather(e *Evidence, keys KeyResolver) error {
	var walk func(*Evidence) error
	walk = func(ev *Evidence) error {
		if ev == nil {
			return ErrMalformed
		}
		switch ev.Kind {
		case KindEmpty, KindNonce, KindMeasurement, KindHash:
			return nil
		case KindSig:
			pub, ok := keys.KeyFor(ev.Signer)
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownKey, ev.Signer)
			}
			off := len(b.arena)
			b.arena = append(b.arena, rot.SigPrefix...)
			msgOff := len(b.arena)
			b.arena = AppendSigMessage(b.arena, ev.Signer, ev.Left)
			if _, known := b.memo.Known(pub, b.arena[msgOff:], ev.Signature); known {
				batchSkipped.Add(1)
				b.arena = b.arena[:off]
			} else {
				b.items = append(b.items, batchSigRef{
					pub: pub, sig: ev.Signature, off: off, end: len(b.arena),
				})
			}
			return walk(ev.Left)
		case KindSeq, KindPar:
			if err := walk(ev.Left); err != nil {
				return err
			}
			return walk(ev.Right)
		default:
			return fmt.Errorf("%w: kind %v", ErrMalformed, ev.Kind)
		}
	}
	return walk(e)
}

// BatchMinSigs is the smallest window the batch equation is worth: below
// it, per-item verification with the standard library's optimized curve
// arithmetic is faster than this package's pure-Go multiscalar (each
// batched term still costs NAF table setup and ~43 additions, and each
// distinct point a decompression).
const BatchMinSigs = 4

// Flush verifies every gathered signature — one batch equation, with
// per-item standard-library fallback on batch failure — and seeds the
// verdicts into the memo. Windows smaller than BatchMinSigs skip the
// equation and verify per item directly. It reports how many signatures
// were settled and whether the per-item path ran. The window is reset
// either way.
func (b *BatchVerifier) Flush() (settled int, fellBack bool) {
	n := len(b.items)
	if n == 0 {
		return 0, false
	}
	batchLastSize.Store(uint64(n))

	if n < BatchMinSigs {
		for i := range b.items {
			it := &b.items[i]
			v := ed25519.Verify(it.pub, b.arena[it.off:it.end], it.sig)
			b.memo.Seed(it.pub, b.arena[it.off+len(rot.SigPrefix):it.end], it.sig, v,
				"full signature verification (memo miss)")
		}
		b.items = b.items[:0]
		b.arena = b.arena[:0]
		return n, true
	}

	b.bv.Reset()
	for i := range b.items {
		it := &b.items[i]
		b.bv.Add(it.pub, b.arena[it.off:it.end], it.sig)
	}
	if b.bv.Verify() {
		// One equation proved every signature in the window.
		for i := range b.items {
			it := &b.items[i]
			b.memo.Seed(it.pub, b.arena[it.off+len(rot.SigPrefix):it.end], it.sig, true,
				"batch signature verification (window seed)")
		}
		batchBatches.Add(1)
		batchSigs.Add(uint64(n))
	} else {
		// At least one bad signature: attribute per item with the stdlib,
		// which keeps rejected-input semantics bit-identical to rot.Verify.
		for i := range b.items {
			it := &b.items[i]
			v := ed25519.Verify(it.pub, b.arena[it.off:it.end], it.sig)
			b.memo.Seed(it.pub, b.arena[it.off+len(rot.SigPrefix):it.end], it.sig, v,
				"per-item fallback after batch failure")
		}
		batchBatches.Add(1)
		batchFallbacks.Add(1)
		fellBack = true
	}
	b.items = b.items[:0]
	b.arena = b.arena[:0]
	return n, fellBack
}

// VerifySignaturesBatched is VerifySignaturesMemo with the verification
// work front-loaded through the batch equation: gather unknown
// signatures, flush them as one batch, then run the ordinary memoized
// walk (which now hits for every node). memo must not be nil. The
// (count, error) result is identical to VerifySignaturesMemo's.
func VerifySignaturesBatched(e *Evidence, keys KeyResolver, memo *VerifyMemo, b *BatchVerifier) (int, error) {
	if b == nil {
		b = NewBatchVerifier(memo)
	} else {
		b.Reset(memo)
	}
	// Gather errors (unknown signer, malformed tree) are deliberately
	// dropped: the memoized walk below reproduces them with the exact
	// error text the unbatched path reports.
	_ = b.Gather(e, keys)
	b.Flush()
	return VerifySignaturesMemo(e, keys, memo)
}
