package scenario

import (
	"context"
	"fmt"
	"io"
	"strings"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/dram"
	"explframe/internal/machine"
	"explframe/internal/stats"
)

// DefaultProbeBudget is the CacheProbe measurement budget a zero Budget
// inherits: enough encryptions for Prime+Probe to recover the full
// first-round key on the default machine with margin.
const DefaultProbeBudget = 4096

// Bounds on one cache-probe trial's work: its probe measurements and the
// lines of each eviction set it builds and walks per measurement.
const (
	maxMeasurements = 1 << 22
	maxEvictionSet  = 1 << 8
)

// cacheProbeKind defines the CacheProbe kind.
var cacheProbeKind = kindDef{
	kind:   CacheProbe,
	cipher: true,
	validate: func(s Spec, fail failFunc) {
		if s.Probe == nil {
			fail("probe: required for kind cache-probe (technique: one of %s)", strings.Join(cache.Techniques(), ", "))
			return
		}
		if !cache.KnownTechnique(s.Probe.Technique) {
			fail("probe.technique: unknown %q (want %s)", s.Probe.Technique, strings.Join(cache.Techniques(), ", "))
		}
		if s.Probe.Noise < 0 || s.Probe.Noise >= 1 {
			fail("probe.noise: %g, want within [0, 1)", s.Probe.Noise)
		}
		g := s.cacheGeometry()
		if s.Probe.EvictionSet != 0 && s.Probe.EvictionSet < g.Ways {
			fail("probe.eviction_set: %d lines cannot evict a %d-way set (0 inherits the associativity)",
				s.Probe.EvictionSet, g.Ways)
		}
		if s.Probe.EvictionSet > maxEvictionSet {
			fail("probe.eviction_set: %d lines, want <= %d", s.Probe.EvictionSet, maxEvictionSet)
		}
		if c, ok := registry.Get(s.cipherName()); ok {
			if err := cache.Observable(c, g.LineBytes); err != nil {
				fail("cipher: %w", err)
			}
		}
		if s.Budget > maxMeasurements {
			fail("budget: %d measurements, want <= %d", s.Budget, maxMeasurements)
		}
	},
	runner: func(_ context.Context, s Spec) (trialFunc, error) {
		c := registry.MustGet(s.cipherName())
		ms, err := s.MachineSpec()
		if err != nil {
			return nil, err
		}
		g := s.cacheGeometry()
		cfg := s.probeConfig()
		return func(rng *stats.RNG) (TrialOutcome, error) {
			tr, err := runCacheProbeTrial(c, ms, g, cfg, rng)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{CacheProbe: &tr}, nil
		}, nil
	},
	has: func(o TrialOutcome) bool { return o.CacheProbe != nil },
	headline: func(r *Result) (float64, string) {
		st := r.CacheProbeStats()
		return st.FullKey.Rate(), fmt.Sprintf("nibbles mean %.1f, leaked mean %.1f B", st.Nibbles.Mean(), st.BytesLeaked.Mean())
	},
	summary: func(w io.Writer, r *Result) {
		st := r.CacheProbeStats()
		fmt.Fprintf(w, "  technique: %s\n", r.Spec.Probe.Technique)
		fmt.Fprintf(w, "  full first-round key: %s\n", ratio(st.FullKey))
		fmt.Fprintf(w, "  key nibbles recovered: mean %.1f\n", st.Nibbles.Mean())
		fmt.Fprintf(w, "  bytes leaked: mean %.1f\n", st.BytesLeaked.Mean())
		if st.BitErrorRate.N() > 0 {
			fmt.Fprintf(w, "  channel bit-error rate: mean %.3f\n", st.BitErrorRate.Mean())
		}
	},
}

// cacheGeometry derives the LLC geometry of the machine the scenario runs
// on (the scenario-layer policy: cache shape follows the machine's CPU
// count, so machine specs stay unchanged and their hashes stable).
func (s Spec) cacheGeometry() cache.Geometry {
	cpus := 2
	if ms, err := s.MachineSpec(); err == nil && ms.CPUs > 0 {
		cpus = ms.CPUs
	}
	return cache.DefaultGeometry(cpus)
}

// probeBudget resolves the CacheProbe measurement budget.
func (s Spec) probeBudget() int {
	if s.Budget > 0 {
		return s.Budget
	}
	return DefaultProbeBudget
}

// probeConfig lowers the spec's probe fields onto the cache layer's
// config.
func (s Spec) probeConfig() cache.ProbeConfig {
	return cache.ProbeConfig{
		Technique:   s.Probe.Technique,
		Budget:      s.probeBudget(),
		Noise:       s.Probe.Noise,
		EvictionSet: s.Probe.EvictionSet,
	}
}

// CacheProbeTrial is one cache-probe trial outcome.
type CacheProbeTrial struct {
	// Nibbles is the number of correctly recovered first-round key
	// nibbles out of NibbleTotal.
	Nibbles int
	// NibbleTotal is the number of attackable nibbles (one per state
	// byte).
	NibbleTotal int
	// BytesLeaked is the information extracted: recovered key bits for
	// the line-granular techniques, channel capacity over the budget for
	// the page-cache activity channel.
	BytesLeaked float64
	// Measurements is the probe measurements taken.
	Measurements int
	// EvictionSets is the eviction sets constructed (0 for page-cache).
	EvictionSets int
	// BitErrors is the page-cache channel's flipped bits (0 otherwise).
	BitErrors int
}

// runCacheProbeTrial executes one CacheProbe-kind trial: the machine's
// mapper viewed through the scenario's derived LLC geometry and the
// mapper's default slice hash, one cache.Attack per trial with the
// victim key and table placement drawn from the trial's private stream.
func runCacheProbeTrial(c registry.Cipher, ms machine.Spec, g cache.Geometry, cfg cache.ProbeConfig, rng *stats.RNG) (CacheProbeTrial, error) {
	mapper, err := dram.NewNamedMapper(ms.MapperName(), ms.Geometry)
	if err != nil {
		return CacheProbeTrial{}, fmt.Errorf("scenario: %w", err)
	}
	view, err := cache.NewView(mapper, g, cache.DefaultSliceHash(ms.MapperName()))
	if err != nil {
		return CacheProbeTrial{}, err
	}
	atk, err := cache.NewAttack(view, c, cfg, rng)
	if err != nil {
		return CacheProbeTrial{}, err
	}
	res := atk.Run()
	return CacheProbeTrial{
		Nibbles:      res.Nibbles,
		NibbleTotal:  res.NibbleTotal,
		BytesLeaked:  res.BytesLeaked,
		Measurements: res.Measurements,
		EvictionSets: res.EvictionSets,
		BitErrors:    res.BitErrors,
	}, nil
}

// CacheProbeStats aggregates CacheProbe-kind trials.
type CacheProbeStats struct {
	// FullKey is the proportion of trials recovering every attackable
	// nibble.
	FullKey stats.Proportion
	// Nibbles summarises the recovered nibbles per trial.
	Nibbles stats.Summary
	// BytesLeaked summarises the extracted information per trial.
	BytesLeaked stats.Summary
	// BitErrorRate summarises the page-cache channel's per-trial error
	// rate (empty for the line-granular techniques).
	BitErrorRate stats.Summary
}

// CacheProbeStats folds the cache-probe trial outcomes.
func (r *Result) CacheProbeStats() CacheProbeStats {
	var c CacheProbeStats
	for _, o := range r.Outcomes {
		tr := o.CacheProbe
		if tr == nil {
			continue
		}
		c.FullKey.Observe(tr.NibbleTotal > 0 && tr.Nibbles == tr.NibbleTotal)
		c.Nibbles.Observe(float64(tr.Nibbles))
		c.BytesLeaked.Observe(tr.BytesLeaked)
		if tr.EvictionSets == 0 && tr.Measurements > 0 {
			c.BitErrorRate.Observe(float64(tr.BitErrors) / float64(tr.Measurements))
		}
	}
	return c
}
