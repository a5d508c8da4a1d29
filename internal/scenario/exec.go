package scenario

import (
	"context"
	"io"

	"explframe/internal/harness"
)

// Result carries one executed scenario: the spec it ran plus its per-trial
// outcomes.
type Result struct {
	// Spec is the scenario that produced this result.
	Spec Spec
	// Outcomes holds one outcome per trial, in trial order; each carries
	// the arm of Spec.Kind.
	Outcomes []TrialOutcome
}

// WriteSummary writes the kind's aggregate outcome lines — the body of the
// `explframe run` summary.
func (r *Result) WriteSummary(w io.Writer) {
	if def, ok := lookupKind(r.Spec.Kind); ok {
		def.summary(w, r)
	}
}

// Run validates spec and executes its trials on the harness pool,
// honouring ctx: cancellation stops the trial dispatch and aborts attack
// pipelines between phases, returning promptly with an error carrying
// ctx.Err().  Execution options (harness.WithWorkers) never affect the
// statistics — one (spec, seed) produces one result at any parallelism.
// Run is RunResumable with nothing checkpointed; every kind's per-trial
// body lives in its kindDef.
func Run(ctx context.Context, spec Spec, opts ...harness.Option) (*Result, error) {
	return RunResumable(ctx, spec, nil, nil, opts...)
}
