package scenario

import (
	"context"
	"fmt"
	"io"
	"strings"

	"explframe/internal/stats"
)

// maxTrials bounds Spec.Trials.  RunResumable allocates one outcome slot
// per trial up front, so Validate must reject a hostile count before any
// run starts; the bound sits far above the 200 trials the largest
// campaign in this repository uses.
const maxTrials = 1 << 14

// kindDef is everything one scenario kind contributes to the shared spec
// model.  Validate, Name, RunResumable, TrialOutcome.Matches,
// CampaignTable and Result.WriteSummary read the definition instead of
// switching on the kind, so adding a kind means a Kind constant, a
// TrialOutcome arm and one kindDef in kinds.
type kindDef struct {
	kind Kind
	// cipher reports whether the kind names a victim cipher: Validate
	// resolves it and Name encodes it.
	cipher bool
	// validate reports the clauses only this kind checks, including the
	// bounds on its per-trial work.
	validate func(s Spec, fail failFunc)
	// runner builds the per-trial body.  Trial k draws only from its
	// private stats.NewStream(seed, k) stream, so its outcome is a pure
	// function of (spec, k) — the property both the golden tables and
	// checkpoint resume depend on.
	runner func(ctx context.Context, s Spec) (trialFunc, error)
	// has reports whether an outcome carries this kind's arm.
	has func(TrialOutcome) bool
	// headline returns CampaignTable's success rate and detail cell.
	headline func(r *Result) (rate float64, detail string)
	// summary writes the aggregate lines `explframe run` prints.
	summary func(w io.Writer, r *Result)
}

// failFunc records one Validate violation.
type failFunc func(format string, args ...any)

// trialFunc runs one trial from its private rng stream.
type trialFunc func(rng *stats.RNG) (TrialOutcome, error)

// kinds is the kind registry, in the order error messages list the kinds.
var kinds = []kindDef{attackKind, steeringKind, baselineKind, pfaKind, dfaKind, cacheProbeKind}

// lookupKind returns the definition of k.
func lookupKind(k Kind) (kindDef, bool) {
	for _, d := range kinds {
		if d.kind == k {
			return d, true
		}
	}
	return kindDef{}, false
}

// kindList renders the registered kinds as "a, b or c".
func kindList() string {
	names := make([]string, len(kinds))
	for i, d := range kinds {
		names[i] = string(d.kind)
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// ratio renders a proportion as "successes/trials (rate)".
func ratio(p stats.Proportion) string {
	return fmt.Sprintf("%d/%d (%.3f)", p.Successes, p.Trials, p.Rate())
}
