package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/stats"
)

// maxPairs bounds a DFA trial's pair budget; dfa.CollectPairs allocates
// every pair up front.
const maxPairs = 1 << 12

// dfaKind defines the DFA kind.
var dfaKind = kindDef{
	kind:   DFA,
	cipher: true,
	validate: func(s Spec, fail failFunc) {
		a, ok := dfa.Get(s.cipherName())
		if !ok {
			fail("cipher: no DFA analyzer registered for %q (have: %s)", s.CipherName(), strings.Join(dfa.Names(), ", "))
		}
		if s.Fault != nil {
			if err := s.Fault.Validate(); err != nil {
				fail("fault: %w", err)
			} else if ok {
				if err := a.Supports(*s.Fault); err != nil {
					fail("fault: %w", err)
				}
			}
		}
		if s.Budget > maxPairs {
			fail("budget: %d pairs, want <= %d", s.Budget, maxPairs)
		}
	},
	runner: func(_ context.Context, s Spec) (trialFunc, error) {
		c := registry.MustGet(s.cipherName())
		a := dfa.MustGet(c.Name())
		m := s.FaultModel()
		budget := s.dfaBudget()
		return func(rng *stats.RNG) (TrialOutcome, error) {
			tr, err := runDFATrial(c, a, m, budget, rng)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{DFA: &tr}, nil
		}, nil
	},
	has: func(o TrialOutcome) bool { return o.DFA != nil },
	headline: func(r *Result) (float64, string) {
		st := r.DFAStats()
		return st.MasterOK.Rate(), fmt.Sprintf("keyspace mean %.1f bits", st.KeySpaceBits.Mean())
	},
	summary: func(w io.Writer, r *Result) {
		st := r.DFAStats()
		fmt.Fprintf(w, "  fault model: %s\n", r.Spec.FaultModel().Name())
		fmt.Fprintf(w, "  unique key recovered: %s\n", ratio(st.Recovered))
		fmt.Fprintf(w, "  master key verified:  %s\n", ratio(st.MasterOK))
		if st.Pairs.N() > 0 {
			fmt.Fprintf(w, "  pairs to recovery: %s\n", st.Pairs.String())
		}
		fmt.Fprintf(w, "  surviving key space: mean %.1f bits\n", st.KeySpaceBits.Mean())
	},
}

// FaultModel resolves the fault model a DFA-kind scenario runs under: the
// explicit Fault when set, otherwise the strongest rung of the cipher
// analyzer's ladder.
func (s Spec) FaultModel() fault.Model {
	if s.Fault != nil {
		return *s.Fault
	}
	if a, ok := dfa.Get(s.cipherName()); ok {
		if l := a.Ladder(); len(l) > 0 {
			return l[0]
		}
	}
	return fault.New(fault.PreciseByte)
}

// DFATrial is one crypto-only differential-fault trial outcome.
type DFATrial struct {
	// RecoveredAt is the correct/faulty pair count at which the key space
	// collapsed to the single true key (-1 if the budget ran out first).
	RecoveredAt int
	// MasterOK reports whether the completed master key matched the
	// victim's.
	MasterOK bool
	// KeySpaceBits is the surviving last-round-key space, in bits, when the
	// trial stopped — 0 on recovery, the ladder's figure of merit when the
	// budget ran out.
	KeySpaceBits float64
}

// dfaBudget resolves the DFA pair budget: 16 pairs unless the spec
// overrides it.
func (s Spec) dfaBudget() int {
	if s.Budget > 0 {
		return s.Budget
	}
	return 16
}

// runDFATrial executes one DFA-kind trial: random key, a full budget of
// correct/faulty pairs collected through the batched dfa.CollectPairs
// (same per-pair draw order as the old one-at-a-time loop, so the E17
// golden holds), then re-analysed pair by pair until the analyzer pins a
// unique key or the budget runs out.  Pairs collected past the recovery
// point are discarded with the trial's private rng.  Master-key
// completion is verified against the true key.
func runDFATrial(c registry.Cipher, a dfa.Analyzer, m fault.Model, budget int, rng *stats.RNG) (DFATrial, error) {
	out := DFATrial{RecoveredAt: -1}
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		return out, err
	}
	table := c.SBox()
	pairs, err := dfa.CollectPairs(c, inst, table, budget, m, rng)
	if err != nil {
		return out, err
	}
	for n := 1; n <= budget; n++ {
		res, err := a.Analyze(pairs[:n], m)
		if err != nil {
			return out, err
		}
		out.KeySpaceBits = res.KeySpaceBits
		if res.Unique {
			out.RecoveredAt = n
			out.MasterOK = res.Master != nil && bytes.Equal(res.Master, key)
			break
		}
	}
	return out, nil
}

// DFAStats aggregates DFA-kind trials.
type DFAStats struct {
	// Recovered and MasterOK are the unique-key and master-key success
	// proportions.
	Recovered, MasterOK stats.Proportion
	// Pairs summarises the correct/faulty pairs needed by successful trials.
	Pairs stats.Summary
	// KeySpaceBits summarises the surviving key space across all trials —
	// zero when every trial recovered, the precision penalty otherwise.
	KeySpaceBits stats.Summary
}

// DFAStats folds the DFA trial outcomes.
func (r *Result) DFAStats() DFAStats {
	var d DFAStats
	for _, o := range r.Outcomes {
		if tr := o.DFA; tr != nil {
			d.Recovered.Observe(tr.RecoveredAt > 0)
			d.MasterOK.Observe(tr.MasterOK)
			if tr.RecoveredAt > 0 {
				d.Pairs.Observe(float64(tr.RecoveredAt))
			}
			d.KeySpaceBits.Observe(tr.KeySpaceBits)
		}
	}
	return d
}
