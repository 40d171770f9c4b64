package telemetry

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// Profiling label plumbing: the continuous profiler (internal/profiler)
// attributes CPU samples to RATS stages by reading pprof goroutine
// labels off the decoded profile. The stage seam (stage.go) stamps those
// labels through ProfRegion values precomputed when a component's Planes
// is initialised, and the stamping itself is gated on one global armed
// flag, which a StageRecorder samples once when it is created.
//
// The helpers live here (not in internal/profiler) deliberately:
// telemetry imports nothing internal, so pera/appraiser/evidence can
// stamp labels without the import cycle a profiler dependency would
// create (profiler → freshness → pera).

// Label keys the profiler looks for on decoded CPU samples.
const (
	ProfStageKey = "pera_stage"
	ProfPlaceKey = "pera_place"
)

// profArmed gates every ProfRegion.Enter. Flipped by the profiler's
// Start/Close (via ArmProfiling); off by default.
var profArmed atomic.Bool

// ArmProfiling turns stage-label stamping on or off process-wide. The
// continuous profiler arms it while a capture window can observe the
// labels and disarms it on Close.
func ArmProfiling(on bool) { profArmed.Store(on) }

// ProfilingArmed reports whether stage labels are being stamped.
func ProfilingArmed() bool { return profArmed.Load() }

// ProfRegion is one (stage, place) labeled context, precomputed so the
// hot path never rebuilds label sets: Enter is an atomic load, a branch
// and (when armed) one SetGoroutineLabels call.
type ProfRegion struct {
	ctx context.Context
}

// NewProfRegion precomputes the labeled context for a stage at a place.
func NewProfRegion(stage Stage, place string) *ProfRegion {
	return &ProfRegion{ctx: pprof.WithLabels(context.Background(),
		pprof.Labels(ProfStageKey, string(stage), ProfPlaceKey, place))}
}

// Enter stamps the region's labels on the calling goroutine when
// profiling is armed, reporting whether it did — pass the result to
// ProfExit (or re-Enter an outer region) when the region ends. Nil-safe,
// so optional instrumentation needs no guards.
func (r *ProfRegion) Enter() bool {
	if r == nil || !profArmed.Load() {
		return false
	}
	pprof.SetGoroutineLabels(r.ctx)
	return true
}

// profClear is the label-free context Exit restores. Background is
// already label-free; keeping one package-level value avoids a
// context.Background call per exit.
var profClear = context.Background()

// ProfExit clears the goroutine's labels if entered is true (the value
// Enter returned). Regions that nest inside another labeled region
// should re-Enter the outer region instead, so the enclosing stage keeps
// its attribution.
func ProfExit(entered bool) {
	if entered {
		pprof.SetGoroutineLabels(profClear)
	}
}
