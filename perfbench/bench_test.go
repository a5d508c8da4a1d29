package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"explframe/internal/cache"
	"explframe/internal/core"
	"explframe/internal/fault"
	"explframe/internal/scenario"
)

// TestTracedAttackMatchesRun pins the traced attack driver to the program:
// for several seeds on "default", "trr-hardened" and the 4-bit ciphers, its
// Report must marshal to the same JSON as core.NewAttack(cfg).Run().
func TestTracedAttackMatchesRun(t *testing.T) {
	specs := []scenario.Spec{
		scenario.New(scenario.WithProfile("default")),
		scenario.New(scenario.WithProfile("trr-hardened")),
		scenario.New(scenario.WithProfile("fast"), scenario.WithCipher("present-80")),
		scenario.New(scenario.WithProfile("fast"), scenario.WithCipher("lilliput-80"),
			scenario.WithNoise(2, 64), scenario.WithSleepingAttacker()),
		scenario.New(scenario.WithProfile("fast"), scenario.WithECC()),
	}
	for _, spec := range specs {
		for _, seed := range []uint64{1, 2, 3} {
			cfg, err := spec.AttackConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			atk, err := core.NewAttack(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := atk.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, err := tracedAttack(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
				t.Errorf("%s seed %d:\n traced %s\n    run %s", spec.Title(), seed, g, w)
			}
			if len(tr.coverage) != 1 || tr.coverage[0] < attackWorkload.minCoverage {
				t.Errorf("%s seed %d: trial span coverage %v, want one trial covered >= %.2f",
					spec.Title(), seed, tr.coverage, attackWorkload.minCoverage)
			}
		}
	}
}

// TestTracedDriversMatchRunResumable pins every other traced driver to the
// trial outcomes scenario.RunResumable produces for the same spec.
func TestTracedDriversMatchRunResumable(t *testing.T) {
	specs := []scenario.Spec{
		scenario.New(scenario.WithKind(scenario.PFA)),
		scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher("present-80")),
		scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher("lilliput-80")),
		scenario.New(scenario.WithKind(scenario.DFA), scenario.WithFaultModel(fault.New(fault.PreciseByte))),
		scenario.New(scenario.WithKind(scenario.DFA), scenario.WithCipher("lilliput-80"),
			scenario.WithFaultModel(fault.New(fault.Nibble)), scenario.WithBudget(40)),
		scenario.New(scenario.WithProbe(cache.TechPrimeProbe), scenario.WithProbeNoise(0.05), scenario.WithBudget(1024)),
		scenario.New(scenario.WithProbe(cache.TechEvictReload), scenario.WithProbeNoise(0.05), scenario.WithBudget(1024)),
		scenario.New(scenario.WithProbe(cache.TechPageCache), scenario.WithProbeNoise(0.05), scenario.WithProfile("ddr4")),
		scenario.New(scenario.WithKind(scenario.Steering)),
		scenario.New(scenario.WithKind(scenario.Steering), scenario.WithPCPFIFO(), scenario.WithSleepingAttacker()),
		scenario.New(scenario.WithKind(scenario.Steering), scenario.WithNoise(2, 64)),
	}
	for _, base := range specs {
		for _, seed := range []uint64{1, 2} {
			spec := base.With(scenario.WithSeed(seed), scenario.WithTrials(2))
			want := map[int]string{}
			if _, err := scenario.RunResumable(context.Background(), spec, nil, func(k int, out scenario.TrialOutcome) {
				want[k] = mustJSON(t, out)
			}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < spec.Trials; k++ {
				got, err := tracedTrial(newTracer(), spec, k)
				if err != nil {
					t.Fatal(err)
				}
				if g := mustJSON(t, got); g != want[k] {
					t.Errorf("%s trial %d:\n traced %s\n   want %s", spec.Title(), k, g, want[k])
				}
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTailRule checks that trial_ms_tail reports the highest ladder
// percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{1, 50, 0}, {19, 50, 9}, {20, 50, 10}, {39, 50, 19}, {40, 75, 10},
		{99, 75, 24}, {100, 90, 10}, {199, 90, 19}, {200, 95, 10},
		{999, 95, 49}, {1000, 99, 10}, {10000, 99.9, 10},
	}
	for _, c := range cases {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(c.n - i) // descending: tail must sort
		}
		p, v, beyond := tail(samples)
		if p != c.p || beyond != c.beyond || v != float64(c.n-c.beyond) {
			t.Errorf("n=%d: p%g value %g beyond %d, want p%g value %d beyond %d",
				c.n, p, v, beyond, c.p, c.n-c.beyond, c.beyond)
		}
	}
}

// TestQuartileSpread checks the run-comparison statistics against values
// from Python's statistics.quantiles(data, n=4) and statistics.median.
func TestQuartileSpread(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5, 3},
		{[]float64{2, 7.5}, 0.625, 8.875, 4.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		md := median(c.data)
		if q1 != c.q1 || q3 != c.q3 || md != c.md {
			t.Errorf("%v: q1 %g q3 %g median %g, want %g %g %g", c.data, q1, q3, md, c.q1, c.q3, c.md)
		}
		if s, want := spread(c.data), (c.q3-c.q1)/c.md; s != want {
			t.Errorf("%v: spread %g, want %g", c.data, s, want)
		}
	}
}

// TestTracerSelfTime checks span nesting: a child's time is charged to its
// parent's child time, and a root span records its coverage.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin("root")
	tr.begin("child")
	for i := 0; i < 1e5; i++ {
		_ = i * i
	}
	child := tr.end()
	root := tr.end()
	s := tr.sums["root"]
	if s.total != root || s.self != root-child || tr.sums["child"].self != child {
		t.Errorf("root total %v self %v, child %v", s.total, s.self, child)
	}
	if len(tr.coverage) != 1 || tr.coverage[0] != float64(child)/float64(root) {
		t.Errorf("coverage %v, want [%v]", tr.coverage, float64(child)/float64(root))
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json declares
// exactly the metrics, with the units, that the two modes print.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(mode string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the run prints %d", mode, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s metric %d: declared %s (%s), printed %s (%s)", mode, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd(0, nil, 0, 0, 0, 0))
	check("per_layer", decl.PerLayer, layerMetrics(newTracer(), 0, serviceStats{}))
}
