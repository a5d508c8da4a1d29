package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"explframe/internal/cache"
	"explframe/internal/machine"
	"explframe/internal/scenario"
)

// hammerTimingActivations sizes the HammerLoop timing sample: large enough
// to amortise setup, small enough that timing five profiles stays seconds.
const hammerTimingActivations = 400_000

// runBenchMachines re-times every registered machine profile — the raw
// HammerLoop activation cost through the full kernel/DRAM stack, and one
// seed-1 end-to-end attack trial — and writes the machine.BenchFile
// snapshot.  Timings are host-dependent by nature; the snapshot anchors
// the bench trajectory and its *shape* is what CI checks.  With a
// trajectory path, the same entries are additionally appended as one
// timestamped point to the append-only history.
func runBenchMachines(path, trajectoryPath string) int {
	f := machine.BenchFile{
		Schema: machine.BenchSchema,
		Note:   "regenerate with: go run ./cmd/benchtab -bench-machines BENCH_machines.json",
		Host:   fmt.Sprintf("%s/%s, %d cpus", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
	}
	for _, name := range machine.Names() {
		ms := machine.MustGet(name)
		entry := machine.BenchEntry{Machine: name, Mapper: ms.MapperName(), MiB: ms.Geometry.TotalBytes() >> 20}

		nsPerAct, err := timeHammerLoop(ms)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: hammer timing: %v\n", name, err)
			return 1
		}
		entry.HammerNsPerActivation = nsPerAct

		spec := scenario.New(scenario.WithProfile(scenario.Profile(name)))
		start := time.Now()
		res, err := scenario.Run(context.Background(), spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: attack trial: %v\n", name, err)
			return 1
		}
		entry.AttackTrialMs = float64(time.Since(start).Microseconds()) / 1000
		entry.KeyRecovered = res.AttackStats().Key.Successes > 0

		fmt.Fprintf(os.Stderr, "%-14s %6.1f ns/act, attack trial %8.1f ms (key recovered: %v)\n",
			name, entry.HammerNsPerActivation, entry.AttackTrialMs, entry.KeyRecovered)
		f.Entries = append(f.Entries, entry)
	}
	data, err := f.EncodeJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d profiles)\n", path, len(f.Entries))
	if trajectoryPath != "" {
		ciphers, err := machine.MeasureCipherCores()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, e := range ciphers {
			fmt.Fprintf(os.Stderr, "%-14s %7.1f ns/encryption scalar, %6.1f bitsliced (%d lanes, %.1fx)\n",
				e.Cipher, e.ScalarNsPerEncryption, e.BitslicedNsPerEncryption, e.Lanes,
				e.ScalarNsPerEncryption/e.BitslicedNsPerEncryption)
		}
		probes, err := machine.MeasureProbeLoops()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, e := range probes {
			fmt.Fprintf(os.Stderr, "%-14s %7.1f ns/probe measurement\n", e.Technique, e.NsPerMeasurement)
		}
		return appendTrajectoryPoint(trajectoryPath, f, ciphers, probes)
	}
	return 0
}

// appendTrajectoryPoint extends (or starts) the append-only trajectory with
// the machine entries, cipher-core timings and cache-probe timings of a
// just-completed bench run.
func appendTrajectoryPoint(path string, f machine.BenchFile, ciphers []machine.CipherBenchEntry, probes []machine.ProbeBenchEntry) int {
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out, err := machine.AppendPoint(prev, f.Host, f.Entries, ciphers, probes, time.Now())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	traj, err := machine.ParseTrajectoryFile(out)
	if err != nil { // cannot happen: AppendPoint validates — but never write+lie
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "appended point %d to %s\n", len(traj.Points), path)
	return 0
}

// timeHammerLoop measures the effective cost of one activation on the
// machine: a same-bank double-sided pair hammered through HammerLoop, the
// same primitive every templating and re-hammer phase spends its time in,
// with steady rounds advancing in bulk wherever the device allows it.
// The workload comes from machine.NewHammerBench, shared with
// BenchmarkHammerLoopPerMachine so snapshot and benchmark cannot drift.
func timeHammerLoop(ms machine.Spec) (float64, error) {
	proc, vas, err := machine.NewHammerBench(ms, 1)
	if err != nil {
		return 0, err
	}
	// An aggressor set larger than the activation budget would truncate
	// rounds to zero — HammerLoop would issue nothing and the division
	// below would be 0/0.  Clamp to one round and divide by the
	// activations actually issued, not the nominal budget.
	rounds := hammerTimingActivations / len(vas)
	if rounds < 1 {
		rounds = 1
	}
	start := time.Now()
	if err := proc.HammerLoop(vas, rounds); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(vas)), nil
}

// runCheckBenchMachines is the CI smoke: the checked-in snapshot must
// strictly parse and name only registered machines.
func runCheckBenchMachines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := machine.ParseBenchFile(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: schema %d, %d profiles, ok\n", path, f.Schema, len(f.Entries))
	return 0
}

// runCheckTrajectory is the CI regression gate: the checked-in trajectory
// must strictly parse (append-only timestamps, registry-exact latest point
// including its cipher-core and cache-probe rows), the latest point's
// recorded cipher rows must show the bitsliced cores pulling their weight
// (at least 4x over scalar on AES-128, never slower elsewhere), the same
// must hold when the cores are re-measured live on this host, and both hot
// paths — the hammer loop on every registered machine and the probe loop of
// every registered technique — must still be allocation-free in steady
// state, the property the trajectory's timings are meaningless without.
func runCheckTrajectory(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := machine.ParseTrajectoryFile(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: schema %d, %d points (latest %s), ok\n",
		path, f.Schema, len(f.Points), f.Points[len(f.Points)-1].Time)
	fail := checkCipherRows(f.Points[len(f.Points)-1].Ciphers, "recorded")
	if machine.RaceEnabled {
		fmt.Fprintln(os.Stderr, "race detector active: skipping the live cipher and zero-alloc gates (instrumentation skews both)")
		return fail
	}
	live, err := machine.MeasureCipherCores()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if checkCipherRows(live, "live") != 0 {
		fail = 1
	}
	for _, name := range machine.Names() {
		allocs, err := machine.HammerLoopSteadyStateAllocs(machine.MustGet(name), 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: alloc gate: %v\n", name, err)
			return 1
		}
		status := "ok"
		if allocs != 0 {
			status = "FAIL"
			fail = 1
		}
		fmt.Fprintf(os.Stderr, "%-14s steady-state hammer allocs/run: %.2f %s\n", name, allocs, status)
	}
	for _, tech := range cache.Techniques() {
		allocs, err := machine.ProbeLoopSteadyStateAllocs(tech)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: probe alloc gate: %v\n", tech, err)
			return 1
		}
		status := "ok"
		if allocs != 0 {
			status = "FAIL"
			fail = 1
		}
		fmt.Fprintf(os.Stderr, "%-14s steady-state probe allocs/run: %.2f %s\n", tech, allocs, status)
	}
	return fail
}

// checkCipherRows applies the bitsliced speedup gate to one set of
// cipher-core timing rows: AES-128's table-heavy scalar path must be beaten
// at least 4x, and no cipher's batch path may be slower than its scalar
// path.  label distinguishes the checked-in rows from a live re-measure.
func checkCipherRows(rows []machine.CipherBenchEntry, label string) int {
	fail := 0
	for _, e := range rows {
		ratio := e.ScalarNsPerEncryption / e.BitslicedNsPerEncryption
		floor := 1.0
		if e.Cipher == "aes-128" {
			floor = 4.0
		}
		status := "ok"
		if ratio < floor {
			status = "FAIL"
			fail = 1
		}
		fmt.Fprintf(os.Stderr, "%-14s %s bitsliced speedup: %5.1fx (floor %.0fx) %s\n",
			e.Cipher, label, ratio, floor, status)
	}
	return fail
}
