package scenario

import (
	"context"
	"fmt"
	"io"

	"explframe/internal/core"
	"explframe/internal/stats"
)

// steeringKind defines the Steering kind; it names no victim cipher.
var steeringKind = kindDef{
	kind: Steering,
	// Steering reads no kind-only field, so it adds no clause.
	validate: func(Spec, failFunc) {},
	runner: func(_ context.Context, s Spec) (trialFunc, error) {
		cfg := s.SteeringConfig()
		return func(rng *stats.RNG) (TrialOutcome, error) {
			c := cfg
			c.Seed = rng.Uint64()
			res, err := core.RunSteeringTrial(c)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{Steering: res}, nil
		}, nil
	},
	has: func(o TrialOutcome) bool { return o.Steering != nil },
	headline: func(r *Result) (float64, string) {
		st := r.SteeringStats()
		return st.FirstPage.Rate(), fmt.Sprintf("planted reused mean %.2f", st.PlantedReused.Mean())
	},
	summary: func(w io.Writer, r *Result) {
		st := r.SteeringStats()
		fmt.Fprintf(w, "  first-page steering: %s\n", ratio(st.FirstPage))
		fmt.Fprintf(w, "  planted frames reused anywhere: mean %.2f\n", st.PlantedReused.Mean())
	},
}

// SteeringConfig lowers a Steering-kind spec onto core.SteeringConfig (the
// Section V mechanics only; hammer and defence axes do not apply).
func (s Spec) SteeringConfig() core.SteeringConfig {
	cfg := core.DefaultSteeringConfig()
	cfg.Seed = s.Seed
	cfg.NoiseProcs = s.Noise.Procs
	cfg.NoiseOps = s.Noise.Ops
	cfg.AttackerSleeps = s.Attacker.Sleeps
	if s.Attacker.CrossCPU {
		cfg.VictimCPU = 1
	}
	if s.Attacker.NoIdleDrain {
		cfg.Machine.DrainOnIdle = false
	}
	if s.PCP == PCPFIFO {
		cfg.Machine.PCPFIFO = true
	}
	if s.Victim.RequestPages > 0 {
		cfg.VictimRequestPages = s.Victim.RequestPages
	}
	return cfg
}

// SteeringStats aggregates Steering-kind trials.
type SteeringStats struct {
	// FirstPage is the precise-steering success proportion (victim's first
	// touched page received the hottest planted frame).
	FirstPage stats.Proportion
	// PlantedReused summarises how many planted frames surfaced anywhere
	// in the victim's allocation.
	PlantedReused stats.Summary
}

// SteeringStats folds the steering results.
func (r *Result) SteeringStats() SteeringStats {
	var s SteeringStats
	for _, o := range r.Outcomes {
		if res := o.Steering; res != nil {
			s.FirstPage.Observe(res.FirstPageHit)
			s.PlantedReused.Observe(float64(res.PlantedReused))
		}
	}
	return s
}
