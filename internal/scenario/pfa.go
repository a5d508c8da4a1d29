package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"explframe/internal/cipher/registry"
	"explframe/internal/fault/pfa"
	"explframe/internal/stats"
)

// pfaKind defines the PFA kind.
var pfaKind = kindDef{
	kind:   PFA,
	cipher: true,
	validate: func(s Spec, fail failFunc) {
		if s.Budget > maxCiphertexts {
			fail("budget: %d ciphertexts, want <= %d", s.Budget, maxCiphertexts)
		}
	},
	runner: func(_ context.Context, s Spec) (trialFunc, error) {
		c := registry.MustGet(s.cipherName())
		budget := s.pfaBudget(c)
		return func(rng *stats.RNG) (TrialOutcome, error) {
			tr, err := runPFATrial(c, budget, rng)
			if err != nil {
				return TrialOutcome{}, err
			}
			return TrialOutcome{PFA: &tr}, nil
		}, nil
	},
	has: func(o TrialOutcome) bool { return o.PFA != nil },
	headline: func(r *Result) (float64, string) {
		st := r.PFAStats()
		return st.MasterOK.Rate(), fmt.Sprintf("last-round recovered %.2f", st.Recovered.Rate())
	},
	summary: func(w io.Writer, r *Result) {
		st := r.PFAStats()
		fmt.Fprintf(w, "  last-round key recovered: %s\n", ratio(st.Recovered))
		fmt.Fprintf(w, "  master key verified:      %s\n", ratio(st.MasterOK))
		if st.Ciphertexts.N() > 0 {
			fmt.Fprintf(w, "  ciphertexts to recovery: %s\n", st.Ciphertexts.String())
		}
	},
}

// PFATrial is one crypto-only persistent-fault trial outcome.
type PFATrial struct {
	// RecoveredAt is the ciphertext count at which the last-round key
	// became unique (-1 if the budget ran out first).
	RecoveredAt int
	// MasterOK reports whether the completed master key matched the
	// victim's.
	MasterOK bool
}

// pfaBudget resolves the PFA ciphertext budget: 25 observations per S-box
// value (the coupon-collector scaling) unless the spec overrides it.
func (s Spec) pfaBudget(c registry.Cipher) int {
	if s.Budget > 0 {
		return s.Budget
	}
	return 25 * (1 << uint(c.EntryBits()))
}

// runPFATrial executes one PFA-kind trial: random key, one random
// single-bit S-box fault, known-fault recovery via the cipher-agnostic
// collector, master-key completion verified against the true key.  The
// draw order is pinned by the E15 golden table: faulty encryptions run in
// registry.BatchLanes-wide batches (bitsliced for the built-in ciphers)
// with the chunk's plaintexts pre-drawn in the old per-block order, and
// recovery is still checked after every single observation so RecoveredAt
// stays exact.  Plaintexts drawn past the recovery point are discarded
// with the trial's private rng, which no later draw reads.
func runPFATrial(c registry.Cipher, budget int, rng *stats.RNG) (PFATrial, error) {
	out := PFATrial{RecoveredAt: -1}
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	inst, err := c.New(key)
	if err != nil {
		return out, err
	}
	// Clean pair, captured before the fault lands.
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	cleanCT := make([]byte, c.BlockSize())
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)

	faulty := c.SBox()
	v := rng.Intn(c.TableLen())
	yStar := faulty[v]
	faulty[v] ^= byte(1 << uint(rng.Intn(c.EntryBits())))

	col := pfa.NewCollector(c)
	bs := c.BlockSize()
	buf := make([]byte, 2*registry.BatchLanes*bs)
	pts := make([][]byte, registry.BatchLanes)
	cts := make([][]byte, registry.BatchLanes)
	for i := range pts {
		pts[i] = buf[i*bs : (i+1)*bs]
		cts[i] = buf[(registry.BatchLanes+i)*bs : (registry.BatchLanes+i+1)*bs]
	}
	for n := 0; n < budget; {
		k := registry.BatchLanes
		if rem := budget - n; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			rng.Bytes(pts[i])
		}
		inst.EncryptBatch(faulty, cts[:k], pts[:k])
		for i := 0; i < k; i++ {
			if err := col.Observe(cts[i]); err != nil {
				return out, err
			}
			if _, err := col.RecoverLastRoundKeyKnownFault(yStar); err == nil {
				out.RecoveredAt = n + i + 1
				master, err := col.RecoverMasterKnownFault(yStar, cleanPT, cleanCT)
				out.MasterOK = err == nil && bytes.Equal(master, key)
				return out, nil
			}
		}
		n += k
	}
	return out, nil
}

// PFAStats aggregates PFA-kind trials.
type PFAStats struct {
	// Recovered and MasterOK are the last-round-key and master-key success
	// proportions.
	Recovered, MasterOK stats.Proportion
	// Ciphertexts summarises the observations needed by successful trials.
	Ciphertexts stats.Summary
}

// PFAStats folds the PFA trial outcomes.
func (r *Result) PFAStats() PFAStats {
	var p PFAStats
	for _, o := range r.Outcomes {
		if tr := o.PFA; tr != nil {
			p.Recovered.Observe(tr.RecoveredAt > 0)
			p.MasterOK.Observe(tr.MasterOK)
			if tr.RecoveredAt > 0 {
				p.Ciphertexts.Observe(float64(tr.RecoveredAt))
			}
		}
	}
	return p
}
