package scenario

import (
	"context"
	"fmt"
	"io"

	"explframe/internal/core"
	"explframe/internal/stats"
)

// baselineModels lists the accepted BaselineModel strings.
var baselineModels = map[string]bool{
	"random-spray": true, "pagemap-targeted": true,
}

// baselineKind defines the Baseline kind.
var baselineKind = kindDef{
	kind:   Baseline,
	cipher: true,
	validate: func(s Spec, fail failFunc) {
		if !baselineModels[s.BaselineModel] {
			fail("baseline: unknown model %q (want random-spray or pagemap-targeted)", s.BaselineModel)
		}
	},
	runner: func(_ context.Context, s Spec) (trialFunc, error) {
		cfg, err := s.BaselineConfig()
		if err != nil {
			return nil, err
		}
		return func(rng *stats.RNG) (TrialOutcome, error) {
			c := cfg
			c.Seed = rng.Uint64()
			res, err := core.RunBaselineTrial(c)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{Baseline: res}, nil
		}, nil
	},
	has: func(o TrialOutcome) bool { return o.Baseline != nil },
	headline: func(r *Result) (float64, string) {
		st := r.BaselineStats()
		return st.Corrupted.Rate(), fmt.Sprintf("neighbours owned %d/%d", st.NeighboursOwned, st.Corrupted.Trials)
	},
	summary: func(w io.Writer, r *Result) {
		st := r.BaselineStats()
		fmt.Fprintf(w, "  table corrupted: %s\n", ratio(st.Corrupted))
		fmt.Fprintf(w, "  neighbour rows owned in %d/%d trials\n", st.NeighboursOwned, st.Corrupted.Trials)
	},
}

// BaselineConfig lowers a Baseline-kind spec onto core.BaselineConfig.  The
// machine, hammer and buffer come from the spec's attack lowering, so a
// baseline spec is the paired comparison of the attack spec with the same
// seed and profile.
func (s Spec) BaselineConfig() (core.BaselineConfig, error) {
	kind := core.RandomSpray
	if s.BaselineModel == "pagemap-targeted" {
		kind = core.PagemapTargeted
	}
	ac, err := s.AttackConfig()
	if err != nil {
		return core.BaselineConfig{}, err
	}
	bc := core.DefaultBaselineConfig(kind)
	bc.Seed = ac.Seed
	bc.Machine = ac.Machine
	bc.Hammer = ac.Hammer
	bc.AttackerMemory = ac.AttackerMemory
	bc.VictimCipher = ac.VictimCipher
	bc.VictimKey = ac.VictimKey
	bc.VictimPages = ac.VictimRequestPages
	return bc, nil
}

// BaselineStats aggregates Baseline-kind trials.
type BaselineStats struct {
	// Corrupted is the success proportion (fault reached the victim table).
	Corrupted stats.Proportion
	// NeighboursOwned counts trials where the attacker mapped a row
	// adjacent to the victim row.
	NeighboursOwned int
}

// BaselineStats folds the baseline results.
func (r *Result) BaselineStats() BaselineStats {
	var b BaselineStats
	for _, o := range r.Outcomes {
		if res := o.Baseline; res != nil {
			b.Corrupted.Observe(res.TableCorrupted)
			if res.NeighboursOwned {
				b.NeighboursOwned++
			}
		}
	}
	return b
}
