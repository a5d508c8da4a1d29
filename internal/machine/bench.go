package machine

import (
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/kernel"
	"explframe/internal/vm"
)

// BenchEntry is one machine profile's timing sample in a bench trajectory
// point (emitted by `benchtab -append-trajectory`).
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

// HammerBenchPages is the size of the shared hammer-timing workload's
// touched buffer, from which the two aggressor pages are picked.
const HammerBenchPages = 64

// NewHammerBench assembles the measurement harness behind both the bench
// trajectory's hammer timings (benchtab -append-trajectory) and
// BenchmarkHammerLoopPerMachine: one process on the machine with the
// fixed touched buffer, returning the two aggressor addresses to drive
// through HammerLoop.  Sharing the setup keeps the trajectory and the
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
