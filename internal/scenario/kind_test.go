package scenario

import (
	"context"
	"strings"
	"testing"

	"explframe/internal/fault"
)

// Every Kind constant has exactly one definition with every hook set, and
// an unknown kind keeps its historical Validate message.
func TestKindDefinitionsComplete(t *testing.T) {
	all := []Kind{Attack, Steering, Baseline, PFA, DFA, CacheProbe}
	if len(kinds) != len(all) {
		t.Errorf("%d kind definitions for %d kinds", len(kinds), len(all))
	}
	for _, k := range all {
		def, ok := lookupKind(k)
		switch {
		case !ok:
			t.Errorf("kind %s has no definition", k)
		case def.validate == nil || def.runner == nil || def.has == nil || def.headline == nil || def.summary == nil:
			t.Errorf("kind %s leaves a hook unset: %+v", k, def)
		case def.cipher == (k == Steering):
			t.Errorf("kind %s: cipher = %v", k, def.cipher)
		}
	}
	want := `kind: unknown "exploit" (want attack, steering, baseline, pfa, dfa or cache-probe)`
	if err := New(WithKind("exploit")).Validate(); err == nil || err.Error() != want {
		t.Errorf("unknown kind: Validate() = %v, want %q", err, want)
	}
}

// Over-limit work is rejected by Validate, so RunResumable refuses it before
// allocating a trial slot or a pair buffer: each of these specs would
// exhaust memory if it ever reached execution.
func TestRunResumableRejectsOverLimitSpecs(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{New(WithKind(PFA), WithTrials(1<<40)), "trials: 1099511627776, want <= 16384"},
		{New(WithFaultModel(fault.New(fault.PreciseByte)), WithBudget(1<<40)), "budget: 1099511627776 pairs"},
		{New(WithKind(PFA), WithBudget(maxCiphertexts+1)), "budget: 262145 ciphertexts"},
		{New(WithProbe("prime-probe"), WithBudget(maxMeasurements+1)), "budget: 4194305 measurements"},
		{New(WithProbe("prime-probe"), WithEvictionSet(maxEvictionSet+1)), "probe.eviction_set: 257 lines, want <= 256"},
		{New(WithCiphertexts(maxCiphertexts + 1)), "ciphertexts: 262145, want <= 262144"},
	}
	for _, tc := range cases {
		called := false
		_, err := RunResumable(context.Background(), tc.spec, nil, func(int, TrialOutcome) { called = true })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.spec.Name(), err, tc.want)
		}
		if called {
			t.Errorf("%s: a trial ran", tc.spec.Name())
		}
	}
	// The bounds themselves are accepted.
	for _, s := range []Spec{
		New(WithKind(Steering), WithTrials(maxTrials)),
		New(WithKind(PFA), WithBudget(maxCiphertexts)),
		New(WithFaultModel(fault.New(fault.PreciseByte)), WithBudget(maxPairs)),
		New(WithProbe("prime-probe"), WithBudget(maxMeasurements), WithEvictionSet(maxEvictionSet)),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}
