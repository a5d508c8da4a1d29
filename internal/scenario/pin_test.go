package scenario

import (
	"testing"

	"explframe/internal/cache"
	"explframe/internal/fault"
	"explframe/internal/machine"
)

// presetNames pins the canonical Name of every preset.  Spec hashes, campaign
// ids and journal bytes all derive from these strings, so a refactor of how
// names are built must leave every one of them byte-identical.
var presetNames = map[string]string{
	"baseline":         "attack:aes-128:seed1:x1",
	"present":          "attack:present-80:seed1:x1",
	"lilliput":         "attack:lilliput-80:seed1:x1",
	"ddr4-aes":         "attack:ddr4:aes-128:seed1:x1",
	"server-aes":       "attack:server-1g:aes-128:seed1:x1",
	"noisy":            "attack:aes-128:seed1:x1+noise(2,150)",
	"cross-cpu":        "attack:aes-128:seed1:x1+cross-cpu",
	"sleeping":         "attack:aes-128:seed1:x1+sleep",
	"trr":              "attack:aes-128:seed1:x1+trr(4,300)",
	"trrespass":        "attack:aes-128:seed1:x1+many-sided(8)+trr(4,300)",
	"ecc":              "attack:aes-128:seed1:x1+ecc",
	"fifo":             "steering:seed1:x40+fifo",
	"steer":            "steering:seed1:x40",
	"pfa-aes":          "pfa:aes-128:seed1:x16",
	"dfa-aes":          "dfa:aes-128:seed1:x12+fault=precise-byte@any",
	"dfa-lilliput":     "dfa:lilliput-80:seed1:x8+budget=40+fault=nibble@any",
	"prime-probe":      "cache-probe:aes-128:seed1:x4+probe=prime-probe@0.05",
	"evict-reload":     "cache-probe:aes-128:seed1:x4+budget=1024+probe=evict-reload@0.05",
	"page-cache":       "cache-probe:aes-128:seed1:x4+budget=2048+probe=page-cache@0.05",
	"ddr4-prime-probe": "cache-probe:ddr4:aes-128:seed1:x4+probe=prime-probe@0.05",
	"spray":            "baseline:fast:aes-128:random-spray:seed1:x12",
	"pagemap":          "baseline:fast:aes-128:pagemap-targeted:seed1:x12",
}

func TestPresetNamePins(t *testing.T) {
	presets := Presets()
	if len(presets) != len(presetNames) {
		t.Errorf("%d presets, %d pinned names", len(presets), len(presetNames))
	}
	for _, p := range presets {
		if got, want := p.Spec.Name(), presetNames[p.Name]; got != want {
			t.Errorf("preset %s: Name() = %q, want %q", p.Name, got, want)
		}
	}
}

// Every axis set at once, per kind: the machine, hammer, defence, noise,
// attacker, victim, fault and probe segments must keep their order and
// spelling whatever the kind.
func TestKindNamePins(t *testing.T) {
	const axes = ":seed9:x3+many-sided(6)+pairs=5000+trr(8,400)+ecc+noise(2,150)+sleep+cross-cpu+no-idle-drain" +
		"+pages=16+cts=4000+fifo+budget=300+fault=nibble@3+probe=evict-reload@0.05+evset=20"
	want := map[Kind]string{
		Attack:     "attack:lab#7750bab4:present-80" + axes,
		Steering:   "steering:lab#7750bab4" + axes,
		Baseline:   "baseline:lab#7750bab4:present-80:pagemap-targeted" + axes,
		PFA:        "pfa:lab#7750bab4:present-80" + axes,
		DFA:        "dfa:lab#7750bab4:present-80" + axes,
		CacheProbe: "cache-probe:lab#7750bab4:present-80" + axes,
	}
	for kind, name := range want {
		s := New(WithMachine(machine.New("lab", machine.WithTRR(4, 300))), WithSeed(9), WithTrials(3),
			WithCipher("present"), WithManySided(6), WithHammerPairs(5000), WithTRR(8, 400), WithECC(),
			WithNoise(2, 150), WithSleepingAttacker(), WithCrossCPU(), WithNoIdleDrain(), WithVictimPages(16),
			WithCiphertexts(4000), WithPCPFIFO(), WithBudget(300),
			WithFaultModel(fault.New(fault.Nibble, fault.WithPosition(3))),
			WithProbe(cache.TechEvictReload), WithProbeNoise(0.05), WithEvictionSet(20), WithKind(kind))
		if kind == Baseline {
			s = s.With(WithBaseline("pagemap-targeted"))
		}
		if got := s.Name(); got != name {
			t.Errorf("kind %s: Name() = %q, want %q", kind, got, name)
		}
	}
}
