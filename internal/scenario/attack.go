package scenario

import (
	"context"
	"fmt"
	"io"

	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
)

// maxCiphertexts bounds the faulty ciphertexts one attack or pfa trial
// may collect.
const maxCiphertexts = 1 << 18

// attackKind defines the Attack kind.
var attackKind = kindDef{
	kind:   Attack,
	cipher: true,
	validate: func(s Spec, fail failFunc) {
		if s.Ciphertexts > maxCiphertexts {
			fail("ciphertexts: %d, want <= %d", s.Ciphertexts, maxCiphertexts)
		}
	},
	runner: func(ctx context.Context, s Spec) (trialFunc, error) {
		cfg, err := s.AttackConfig()
		if err != nil {
			return nil, err
		}
		return func(rng *stats.RNG) (TrialOutcome, error) {
			c := cfg
			c.Seed = rng.Uint64()
			atk, err := core.NewAttack(c)
			if err != nil {
				return TrialOutcome{}, err
			}
			rep, err := atk.RunContext(ctx)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{Attack: rep}, nil
		}, nil
	},
	has: func(o TrialOutcome) bool { return o.Attack != nil },
	headline: func(r *Result) (float64, string) {
		st := r.AttackStats()
		return st.Key.Rate(), fmt.Sprintf("site %.2f steer %.2f fault %.2f", st.Site.Rate(), st.Steer.Rate(), st.Fault.Rate())
	},
	summary: func(w io.Writer, r *Result) {
		st := r.AttackStats()
		fmt.Fprintf(w, "  site found:    %s\n", ratio(st.Site))
		fmt.Fprintf(w, "  steering hit:  %s\n", ratio(st.Steer))
		fmt.Fprintf(w, "  fault planted: %s\n", ratio(st.Fault))
		fmt.Fprintf(w, "  key recovered: %s\n", ratio(st.Key))
		if st.Ciphertexts.N() > 0 {
			fmt.Fprintf(w, "  ciphertexts to recovery: %s\n", st.Ciphertexts.String())
		}
	},
}

// hammerMode maps a HammerSpec.Mode string onto the engine's enum.
func hammerMode(mode string) rowhammer.Mode {
	switch mode {
	case "single-sided":
		return rowhammer.SingleSided
	case "many-sided":
		return rowhammer.ManySided
	default:
		return rowhammer.DoubleSided
	}
}

// AttackConfig lowers an Attack-kind spec onto core.Config.  The machine —
// a registered profile or an inline spec — supplies the hardware and every
// sizing default; the spec's non-zero fields override exactly the knobs
// they name, so a spec built from options equals the hand-mutated config
// the drivers used to assemble.
func (s Spec) AttackConfig() (core.Config, error) {
	c, ok := registry.Get(s.cipherName())
	if !ok {
		return core.Config{}, fmt.Errorf("scenario: unknown cipher %q", s.cipherName())
	}
	ms, err := s.MachineSpec()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.ConfigForMachine(ms, s.Seed)
	cfg.VictimCipher = c.Name()
	cfg.VictimKey = core.DefaultVictimKey(c)
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
	if s.Ciphertexts > 0 {
		cfg.Ciphertexts = s.Ciphertexts
	}
	if s.Hammer.Mode != "" {
		cfg.Hammer.Mode = hammerMode(s.Hammer.Mode)
	}
	cfg.Hammer.Decoys = s.Hammer.Decoys
	if s.Hammer.Pairs > 0 {
		cfg.Hammer.PairHammerCount = s.Hammer.Pairs
	}
	if s.Defences.TRR {
		cfg.Machine.FaultModel.TRR = dram.TRRConfig{
			Enabled: true, TrackerSize: s.trrTracker(), Threshold: s.trrThreshold(),
		}
	}
	if s.Defences.ECC {
		cfg.Machine.FaultModel.ECC = dram.ECCSecDed
	}
	return cfg, nil
}

// AttackStats aggregates Attack-kind trials per phase.
type AttackStats struct {
	// Site, Steer, Fault and Key are the per-phase success proportions
	// (usable flip templated, frame steered, fault planted, key recovered).
	Site, Steer, Fault, Key stats.Proportion
	// Ciphertexts summarises the analysis cost of the successful trials.
	Ciphertexts stats.Summary
}

// AttackStats folds the attack reports into per-phase proportions.
func (r *Result) AttackStats() AttackStats {
	var a AttackStats
	for _, o := range r.Outcomes {
		rep := o.Attack
		if rep == nil {
			continue
		}
		a.Site.Observe(rep.SiteFound)
		a.Steer.Observe(rep.SteeringHit)
		a.Fault.Observe(rep.FaultInjected)
		a.Key.Observe(rep.Success())
		if rep.Success() {
			a.Ciphertexts.Observe(float64(rep.CiphertextsUsed))
		}
	}
	return a
}
