package freshness

import (
	"fmt"
	"sort"
	"time"
)

// Rule names. The threshold rule is the hard edge of the budget; the
// burn-rate rule is the early-warning SLO evaluator over the sliding
// window.
const (
	// RuleStaleness fires when a place's committed evidence age crosses
	// LapsedAfter (or the place is tracked and never attested).
	RuleStaleness = "staleness-threshold"
	// RuleBurn fires when the fraction of out-of-budget window samples
	// consumes the error budget (1 − sloTarget) at ≥ burnMax× the
	// allowed rate.
	RuleBurn = "freshness-burn"
)

// Alert states on the firing→resolved lifecycle.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is one alert through its lifecycle. Instances live in the
// bounded ring; sinks receive copies at each transition.
type Alert struct {
	ID     uint64 `json:"id"`
	Rule   string `json:"rule"`
	Place  string `json:"place"`
	Policy string `json:"policy"`
	State  string `json:"state"` // firing | resolved
	Reason string `json:"reason"`

	AgeNS      int64  `json:"age_ns"` // evidence age when fired
	FiredAtNS  int64  `json:"fired_at_ns"`
	FiredEval  uint64 `json:"fired_eval"` // evaluation count at firing
	ResolvedNS int64  `json:"resolved_at_ns,omitempty"`
	Probes     uint64 `json:"probes"`    // re-attestation probes issued while firing
	ProbeOK    uint64 `json:"probes_ok"` // of those, appraised clean
}

// stateKey identifies one rule × place evaluation thread.
type stateKey struct {
	rule  string
	place string
}

// alertState is the hysteresis ladder for one rule × place.
type alertState struct {
	breachStreak  int
	cleanStreak   int
	current       *Alert // non-nil while firing (points into the ring)
	lastProbeEval uint64
}

// KindAnomaly marks events emitted by the flight-recorder anomaly
// detectors (internal/recorder). They ride the same Sink pipeline as the
// watchdog's fired/resolved/probe transitions so anomalies land in the
// same stderr log and sealed audit ledger as alerts — no
// parallel alerting path. For anomaly events Alert.Rule carries the
// detector name, Alert.Place the attributed place (when known) and
// Alert.Reason the detector's explanation.
const KindAnomaly = "anomaly"

// KindProfile marks events emitted by the continuous profiler's
// baseline diff engine (internal/profiler): a stage or function whose
// CPU share regressed past the configured delta. Like anomalies, they
// share the alert Sink pipeline — Alert.Rule carries
// "profile_regression:<kind>:<what>", Alert.Place the attributed place
// for stage findings, and Alert.Reason the share comparison.
const KindProfile = "profile_regression"

// Event is one sink-visible alert transition.
type Event struct {
	Kind     string `json:"kind"` // fired | resolved | probe | anomaly | profile_regression
	Alert    Alert  `json:"alert"`
	ProbeOK  bool   `json:"probe_ok,omitempty"`
	ProbeErr string `json:"probe_err,omitempty"`
}

// probeTarget is one place a probe round should challenge.
type probeTarget struct {
	place string
	key   stateKey
}

// evaluateLocked runs one evaluation of both rules over every row:
// classify each place, feed the sliding windows and the age histogram,
// walk the hysteresis ladders, and collect sink events plus probe
// targets for the caller to act on after releasing the lock.
func (w *Watchdog) evaluateLocked() ([]Event, []probeTarget) {
	w.evals++
	now := w.cfg.Clock()
	var events []Event
	var probes []probeTarget

	for _, place := range w.rowSeq {
		r := w.rows[place]
		st, age := w.statusLocked(r, now)
		if st == StatusNever && !r.tracked {
			continue // untracked and unattested: nothing to judge yet
		}
		bad := st != StatusFresh
		r.pushSample(bad)
		if st != StatusNever {
			w.ageHist.Observe(age.Seconds())
		}

		// Threshold rule: the hard budget edge.
		breach := st == StatusLapsed || st == StatusNever
		reason := ""
		if breach {
			if st == StatusNever {
				reason = "no evidence for this place has ever appraised clean"
			} else {
				reason = fmt.Sprintf("committed evidence age %v exceeds lapse budget %v",
					age.Round(time.Millisecond), w.cfg.Budget.LapsedAfter)
			}
		}
		events, probes = w.stepRuleLocked(RuleStaleness, r, st, age, breach, reason, events, probes)

		// Burn-rate rule: error budget = 1 − sloTarget of window samples
		// may be out of budget; fire when consumption runs ≥ burnMax×.
		if r.winN >= minSamples {
			badFrac := float64(r.winBad) / float64(r.winN)
			errBudget := 1 - sloTarget
			burn := badFrac / errBudget
			breach = burn >= burnMax
			reason = ""
			if breach {
				reason = fmt.Sprintf("freshness SLO burning at %.1fx: %.0f%% of last %d samples out of budget (target %.0f%%)",
					burn, badFrac*100, r.winN, sloTarget*100)
			}
			events, probes = w.stepRuleLocked(RuleBurn, r, st, age, breach, reason, events, probes)
		}
	}
	return events, probes
}

// stepRuleLocked advances one rule × place hysteresis ladder by one
// evaluation and appends any transition events / probe targets.
func (w *Watchdog) stepRuleLocked(rule string, r *row, st Status, age time.Duration,
	breach bool, reason string, events []Event, probes []probeTarget) ([]Event, []probeTarget) {

	key := stateKey{rule, r.place}
	as := w.states[key]
	if as == nil {
		as = &alertState{}
		w.states[key] = as
	}

	if as.current == nil {
		// Quiescent: count consecutive breaches toward fireAfter.
		if !breach {
			as.breachStreak = 0
			return events, probes
		}
		as.breachStreak++
		if as.breachStreak < fireAfter {
			return events, probes
		}
		w.alertSeq++
		a := &Alert{
			ID: w.alertSeq, Rule: rule, Place: r.place, Policy: policy,
			State: StateFiring, Reason: reason,
			AgeNS: int64(age), FiredAtNS: w.cfg.Clock().UnixNano(), FiredEval: w.evals,
		}
		w.pushAlertLocked(a)
		as.current = a
		as.breachStreak, as.cleanStreak = 0, 0
		as.lastProbeEval = w.evals
		w.firedTotal++
		events = append(events, Event{Kind: "fired", Alert: *a})
		probes = append(probes, probeTarget{place: r.place, key: key})
		return events, probes
	}

	// Firing: resolution requires the place back in budget (fresh
	// evidence appraised clean) AND the rule's breach condition clear —
	// a burn alert must not flap while its window is still draining —
	// for resolveAfter consecutive evals.
	if st == StatusFresh && !breach {
		as.cleanStreak++
		if as.cleanStreak >= resolveAfter {
			a := as.current
			a.State = StateResolved
			a.ResolvedNS = w.cfg.Clock().UnixNano()
			w.resolvedTotal++
			as.current = nil
			as.cleanStreak, as.breachStreak = 0, 0
			events = append(events, Event{Kind: "resolved", Alert: *a})
		}
		return events, probes
	}
	as.cleanStreak = 0
	if reason != "" {
		as.current.Reason = reason // keep the latest breach detail
	}
	if w.evals-as.lastProbeEval >= probeEvery {
		as.lastProbeEval = w.evals
		probes = append(probes, probeTarget{place: r.place, key: key})
	}
	return events, probes
}

// ProbeFiring issues one immediate probe round for every firing alert,
// regardless of the probeEvery cadence — the hook a harness or operator
// uses the moment a device is believed back.
func (w *Watchdog) ProbeFiring() {
	w.mu.Lock()
	var targets []probeTarget
	for key, as := range w.states {
		if as.current != nil {
			as.lastProbeEval = w.evals
			targets = append(targets, probeTarget{place: key.place, key: key})
		}
	}
	w.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].place != targets[j].place {
			return targets[i].place < targets[j].place
		}
		return targets[i].key.rule < targets[j].key.rule
	})
	w.runProbes(targets)
}

// pushAlertLocked inserts an alert into the bounded ring.
func (w *Watchdog) pushAlertLocked(a *Alert) {
	if len(w.ring) < alertRing {
		w.ring = append(w.ring, a)
		return
	}
	w.ring[w.ringHead] = a
	w.ringHead = (w.ringHead + 1) % alertRing
}

// runProbes challenges each target place through the prober, records
// the outcome on the row and the firing alert, and emits probe events.
// A CAS guard prevents recursion: a probe's own appraisal re-enters
// StageEnded, whose evaluation must not spawn nested probes.
func (w *Watchdog) runProbes(targets []probeTarget) {
	if len(targets) == 0 {
		return
	}
	w.mu.Lock()
	p := w.prober
	w.mu.Unlock()
	if p == nil {
		return
	}
	if !w.probing.CompareAndSwap(false, true) {
		return
	}
	defer w.probing.Store(false)

	var events []Event
	for _, t := range targets {
		err := p.Probe(t.place)
		w.mu.Lock()
		r := w.rowLocked(t.place)
		r.probes++
		w.probesTotal++
		if err == nil {
			r.probeOK++
			w.probeOKTotal++
		}
		var snap Alert
		if as := w.states[t.key]; as != nil && as.current != nil {
			as.current.Probes++
			if err == nil {
				as.current.ProbeOK++
			}
			snap = *as.current
		} else {
			snap = Alert{Rule: t.key.rule, Place: t.place, Policy: policy}
		}
		w.mu.Unlock()
		e := Event{Kind: "probe", Alert: snap, ProbeOK: err == nil}
		if err != nil {
			e.ProbeErr = err.Error()
		}
		events = append(events, e)
	}
	w.dispatch(events)
}
