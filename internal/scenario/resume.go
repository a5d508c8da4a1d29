package scenario

import (
	"context"
	"fmt"

	"explframe/internal/core"
	"explframe/internal/harness"
	"explframe/internal/stats"
)

// TrialOutcome is the serializable result of one trial of any scenario
// kind: exactly one field is non-nil, selected by the spec's Kind.  It is
// the unit of the campaign service's checkpoint journal — a journaled
// outcome substitutes byte-for-byte for recomputing the trial, because
// trial k draws only from its private stats.NewStream(seed, k) stream.
type TrialOutcome struct {
	// Attack holds an Attack-kind trial's phase-by-phase report.
	Attack *core.Report `json:"attack,omitempty"`
	// Steering holds a Steering-kind trial's plant-and-steer result.
	Steering *core.SteeringResult `json:"steering,omitempty"`
	// Baseline holds a Baseline-kind trial's prior-work result.
	Baseline *core.BaselineResult `json:"baseline,omitempty"`
	// PFA holds a PFA-kind trial's key-recovery outcome.
	PFA *PFATrial `json:"pfa,omitempty"`
	// DFA holds a DFA-kind trial's key-recovery outcome.
	DFA *DFATrial `json:"dfa,omitempty"`
	// CacheProbe holds a CacheProbe-kind trial's leakage outcome.
	CacheProbe *CacheProbeTrial `json:"cache_probe,omitempty"`
}

// Matches reports whether the outcome's populated arm agrees with kind —
// the guard a checkpoint consumer runs before substituting a journaled
// outcome for a recomputation.
func (o TrialOutcome) Matches(kind Kind) bool {
	def, ok := lookupKind(kind)
	return ok && def.has(o)
}

// Checkpoint maps spec hash -> trial index -> completed outcome: the
// resume state a campaign journal replays into Campaign.Run so completed
// trials are merged instead of recomputed.
type Checkpoint map[uint64]map[int]TrialOutcome

// Add records one completed trial.
func (cp Checkpoint) Add(specHash uint64, trial int, out TrialOutcome) {
	m := cp[specHash]
	if m == nil {
		m = make(map[int]TrialOutcome)
		cp[specHash] = m
	}
	m[trial] = out
}

// Trials returns the total number of checkpointed trials.
func (cp Checkpoint) Trials() int {
	n := 0
	for _, m := range cp {
		n += len(m)
	}
	return n
}

// RunResumable is Run with checkpoint resume and per-trial progress: trials
// present in completed are merged into the result without recomputing (their
// rng streams are never drawn from, so the remaining trials are unaffected),
// and onTrial is invoked — serialized, in completion order — for every trial
// actually computed this call, with its outcome.  Merged trials never reach
// onTrial, so a journal fed by it records each trial exactly once across any
// number of interrupted runs.  The Result is byte-identical to an
// uninterrupted Run at any split, worker count or resume point.
func RunResumable(ctx context.Context, spec Spec, completed map[int]TrialOutcome, onTrial func(trial int, out TrialOutcome), opts ...harness.Option) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Title(), err)
	}
	for i, out := range completed {
		if i < 0 || i >= spec.Trials {
			return nil, fmt.Errorf("scenario %q: checkpointed trial %d out of range [0,%d)", spec.Title(), i, spec.Trials)
		}
		if !out.Matches(spec.Kind) {
			return nil, fmt.Errorf("scenario %q: checkpointed trial %d does not carry a %s outcome", spec.Title(), i, spec.Kind)
		}
	}
	def, _ := lookupKind(spec.Kind) // Validate accepted the kind
	run, err := def.runner(ctx, spec)
	if err != nil {
		return nil, err
	}

	outs := make([]TrialOutcome, spec.Trials)
	computed := make([]bool, spec.Trials)
	// Copy before appending: the caller's slice may be shared across
	// parallel campaign specs, and appending into spare capacity would race.
	opts = append(append(make([]harness.Option, 0, len(opts)+2), opts...),
		harness.WithContext(ctx),
		harness.WithTrialDone(func(i int) {
			if computed[i] && onTrial != nil {
				onTrial(i, outs[i])
			}
		}))
	all, err := harness.RunTrials(spec.Seed, spec.Trials, func(i int, rng *stats.RNG) (TrialOutcome, error) {
		if out, ok := completed[i]; ok {
			return out, nil
		}
		out, err := run(rng)
		if err != nil {
			return TrialOutcome{}, err
		}
		outs[i] = out
		computed[i] = true
		return out, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &Result{Spec: spec, Outcomes: all}, nil
}
