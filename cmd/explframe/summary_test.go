package main

import (
	"context"
	"io"
	"os"
	"testing"

	"explframe/internal/cache"
	"explframe/internal/fault"
	"explframe/internal/scenario"
)

// The `explframe run` summary of one small spec per kind, pinned byte for
// byte together with its exit code: moving the per-kind lines into the
// scenario package must not change a character of what users see.
func TestRunSummaryPins(t *testing.T) {
	cases := []struct {
		spec scenario.Spec
		code int
		want string
	}{
		{
			scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithTrials(2), scenario.WithSeed(3)), 0,
			"scenario attack:fast:aes-128:seed3:x2: kind attack, 2 trials (seed 3)\n" +
				"  site found:    2/2 (1.000)\n  steering hit:  2/2 (1.000)\n  fault planted: 2/2 (1.000)\n  key recovered: 2/2 (1.000)\n" +
				"  ciphertexts to recovery: mean=2816.000 std=362.039 p50=2560.000 min=2560.000 max=3072.000 n=2\n",
		},
		{
			scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithCrossCPU(), scenario.WithTrials(2)), 1,
			"scenario attack:fast:aes-128:seed1:x2+cross-cpu: kind attack, 2 trials (seed 1)\n" +
				"  site found:    2/2 (1.000)\n  steering hit:  0/2 (0.000)\n  fault planted: 0/2 (0.000)\n  key recovered: 0/2 (0.000)\n",
		},
		{
			scenario.New(scenario.WithKind(scenario.Steering), scenario.WithTrials(4), scenario.WithSeed(2)), 0,
			"scenario steering:seed2:x4: kind steering, 4 trials (seed 2)\n" +
				"  first-page steering: 4/4 (1.000)\n  planted frames reused anywhere: mean 1.00\n",
		},
		{
			scenario.New(scenario.WithProfile(scenario.ProfileFast), scenario.WithBaseline("random-spray"), scenario.WithTrials(2)), 0,
			"scenario baseline:fast:aes-128:random-spray:seed1:x2: kind baseline, 2 trials (seed 1)\n" +
				"  table corrupted: 0/2 (0.000)\n  neighbour rows owned in 2/2 trials\n",
		},
		{
			scenario.New(scenario.WithKind(scenario.PFA), scenario.WithCipher("present-80"), scenario.WithTrials(3), scenario.WithSeed(11)), 0,
			"scenario pfa:present-80:seed11:x3: kind pfa, 3 trials (seed 11)\n" +
				"  last-round key recovered: 3/3 (1.000)\n  master key verified:      3/3 (1.000)\n" +
				"  ciphertexts to recovery: mean=92.333 std=20.207 p50=89.000 min=74.000 max=114.000 n=3\n",
		},
		{
			scenario.New(scenario.WithFaultModel(fault.New(fault.PreciseByte)), scenario.WithTrials(2), scenario.WithSeed(7)), 0,
			"scenario dfa:aes-128:seed7:x2+fault=precise-byte@any: kind dfa, 2 trials (seed 7)\n" +
				"  fault model: precise-byte@any\n  unique key recovered: 1/2 (0.500)\n  master key verified:  1/2 (0.500)\n" +
				"  pairs to recovery: mean=9.000 std=0.000 p50=9.000 min=9.000 max=9.000 n=1\n  surviving key space: mean 5.0 bits\n",
		},
		{
			scenario.New(scenario.WithProbe(cache.TechPageCache), scenario.WithProbeNoise(0.05), scenario.WithBudget(256), scenario.WithTrials(2)), 0,
			"scenario cache-probe:aes-128:seed1:x2+budget=256+probe=page-cache@0.05: kind cache-probe, 2 trials (seed 1)\n" +
				"  technique: page-cache\n  full first-round key: 0/2 (0.000)\n  key nibbles recovered: mean 1.0\n" +
				"  bytes leaked: mean 28.0\n  channel bit-error rate: mean 0.018\n",
		},
	}
	for _, tc := range cases {
		var code int
		got := captureStdout(t, func() { code = runSummary(context.Background(), tc.spec, 2) })
		if code != tc.code || got != tc.want {
			t.Errorf("%s: exit %d, output\n%s\nwant exit %d, output\n%s", tc.spec.Name(), code, got, tc.code, tc.want)
		}
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stdout = old
	w.Close()
	return string(<-done)
}
