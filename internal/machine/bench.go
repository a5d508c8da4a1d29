package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/vm"
)

// BenchSchema is the current BENCH_machines.json schema version; bump it
// when the entry shape changes so stale snapshots fail parsing loudly.
const BenchSchema = 1

// BenchEntry is one machine profile's timing sample in the checked-in
// BENCH_machines.json baseline (emitted by `benchtab -bench-machines`).
type BenchEntry struct {
	// Machine is the registered profile name the sample was taken on.
	Machine string `json:"machine"`
	// Mapper is the profile's address-mapper kind.
	Mapper string `json:"mapper"`
	// MiB is the module capacity.
	MiB uint64 `json:"mib"`
	// HammerNsPerActivation is the effective cost of one activation: the
	// wall time of a long HammerLoop over a same-bank double-sided pair,
	// divided by the activations it issued.  Steady rounds advance in
	// bulk (dram.Device.HammerCycle), so on machines without TRR this is
	// far below the cost of stepping one activation through the device.
	HammerNsPerActivation float64 `json:"hammer_ns_per_activation"`
	// AttackTrialMs is the wall time of one seed-1 end-to-end attack trial.
	AttackTrialMs float64 `json:"attack_trial_ms"`
	// KeyRecovered records that trial's outcome, pinning that the timing
	// measured a real attack, not an early bail-out.
	KeyRecovered bool `json:"key_recovered"`
}

// BenchFile is the snapshot document: schema, provenance note and one
// entry per machine profile.  The snapshot is a trajectory anchor, not a
// golden — timings drift with hosts — so only its shape is CI-checked.
type BenchFile struct {
	// Schema is BenchSchema at emission time.
	Schema int `json:"schema"`
	// Note records how to regenerate the file.
	Note string `json:"note"`
	// Host describes the machine the sample was taken on (GOOS/GOARCH and
	// CPU count — enough to judge comparability, no hostnames).
	Host string `json:"host"`
	// Entries holds one sample per registered machine profile.
	Entries []BenchEntry `json:"entries"`
}

// ParseBenchFile strictly decodes and sanity-checks a BENCH_machines.json
// document: known schema, at least one entry, every entry naming a
// registered machine with positive timings.  The CI smoke and the repo's
// parse test both go through here, so the checked-in snapshot can never
// rot silently.
func ParseBenchFile(data []byte) (BenchFile, error) {
	var f BenchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return BenchFile{}, fmt.Errorf("machine: decode bench file: %w", err)
	}
	var errs []error
	if f.Schema != BenchSchema {
		errs = append(errs, fmt.Errorf("schema %d, want %d", f.Schema, BenchSchema))
	}
	if len(f.Entries) == 0 {
		errs = append(errs, errors.New("no entries"))
	}
	for i, e := range f.Entries {
		if _, ok := Get(e.Machine); !ok {
			errs = append(errs, fmt.Errorf("entry %d: machine %q is not registered", i, e.Machine))
		}
		if e.HammerNsPerActivation <= 0 || e.AttackTrialMs <= 0 {
			errs = append(errs, fmt.Errorf("entry %d (%s): non-positive timings (%g ns/act, %g ms)",
				i, e.Machine, e.HammerNsPerActivation, e.AttackTrialMs))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return BenchFile{}, fmt.Errorf("machine: bench file invalid: %w", err)
	}
	return f, nil
}

// EncodeJSON renders the bench file as indented JSON.
func (f BenchFile) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// HammerBenchPages is the size of the shared hammer-timing workload's
// touched buffer, from which the two aggressor pages are picked.
const HammerBenchPages = 64

// NewHammerBench assembles the measurement harness behind both the
// checked-in BENCH_machines.json snapshot (benchtab -bench-machines) and
// BenchmarkHammerLoopPerMachine: one process on the machine with the
// fixed touched buffer, returning the two aggressor addresses to drive
// through HammerLoop.  Sharing the setup keeps the snapshot and the
// in-tree benchmark measuring the same workload.
func NewHammerBench(ms Spec, seed uint64) (*kernel.Process, []vm.VirtAddr, error) {
	_, proc, vas, err := newHammerBench(ms, seed)
	return proc, vas, err
}

// newHammerBench is NewHammerBench that also returns the machine, whose
// device counters the bench's own test inspects.
func newHammerBench(ms Spec, seed uint64) (*kernel.Machine, *kernel.Process, []vm.VirtAddr, error) {
	m, err := kernel.NewMachine(ms.KernelConfig(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	proc, err := m.Spawn("bench", 0)
	if err != nil {
		return nil, nil, nil, err
	}
	base, err := proc.Mmap(HammerBenchPages * vm.PageSize)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := proc.Touch(base, HammerBenchPages*vm.PageSize); err != nil {
		return nil, nil, nil, err
	}
	vas, err := hammerBenchPair(proc, m.DRAM().Mapper(), base)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, proc, vas, nil
}

// hammerBenchPair picks the aggressors from the touched buffer through
// the mapper: the first two pages, in buffer order, that sit in one bank
// two rows apart — a double-sided pair around the row between them.  Every
// activation of the loop is then a row conflict that disturbs neighbours;
// pages in different banks would leave both rows open and time nothing
// but row-buffer hits.
func hammerBenchPair(proc *kernel.Process, mapper dram.AddressMapper, base vm.VirtAddr) ([]vm.VirtAddr, error) {
	seen := make(map[[2]int]vm.VirtAddr)
	for i := 0; i < HammerBenchPages; i++ {
		va := base + vm.VirtAddr(i*vm.PageSize)
		pa, ok := proc.Translate(va)
		if !ok {
			return nil, fmt.Errorf("machine: bench page %d not resident", i)
		}
		a := mapper.ToDRAM(pa)
		bg := mapper.BankGroup(a)
		for _, delta := range []int{-2, 2} {
			if row, ok := mapper.AdjacentRow(a.Row, delta); ok {
				if other, ok := seen[[2]int{bg, row}]; ok {
					return []vm.VirtAddr{other, va}, nil
				}
			}
		}
		if _, dup := seen[[2]int{bg, a.Row}]; !dup {
			seen[[2]int{bg, a.Row}] = va
		}
	}
	return nil, fmt.Errorf("machine: no same-bank double-sided pair among the %d bench pages", HammerBenchPages)
}
