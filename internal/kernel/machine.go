// Package kernel glues the simulated hardware (internal/dram) to the memory
// management stack (internal/mm, internal/vm) behind a process/syscall
// façade: Spawn, Mmap, Munmap, memory access with demand paging, sleep/wake
// with the per-CPU page frame cache drain semantics the paper's attack
// depends on.
package kernel

import (
	"errors"
	"fmt"

	"explframe/internal/dram"
	"explframe/internal/mm"
	"explframe/internal/stats"
	"explframe/internal/vm"
)

// Pid identifies a process.
type Pid int

// ProcState is the scheduling state of a process.
type ProcState int

// Process states.  The distinction matters because Section V requires the
// attacker to "remain active rather than going into inactive state
// (sleeping)": when every process on a CPU sleeps, the kernel drains that
// CPU's page frame cache and the planted frame escapes to the buddy
// allocator.
const (
	StateRunning ProcState = iota
	StateSleeping
	StateExited
)

// Config assembles a machine.
type Config struct {
	Geometry   dram.Geometry
	FaultModel dram.FaultModel
	// Mapper names the DRAM address-mapper kind (see dram.MapperNames);
	// empty selects the linear mapper, preserving historical behaviour.
	Mapper   string
	NumCPUs  int
	PCPBatch int
	PCPHigh  int
	// PCPFIFO is the page-frame-cache policy ablation knob (see mm.Config).
	PCPFIFO bool
	// MinWatermarkPages is passed through to the physical allocator.
	MinWatermarkPages uint64
	// Seed drives weak-cell placement and any stochastic kernel behaviour.
	Seed uint64
	// DrainOnIdle enables the pcp drain when a CPU has no runnable process.
	// Defaults to true in DefaultConfig; E11 flips it to isolate the effect.
	DrainOnIdle bool
}

// DefaultConfig returns a 2-CPU machine backed by the default 256 MiB DRAM
// geometry and fault model.
func DefaultConfig() Config {
	return Config{
		Geometry:          dram.DefaultGeometry(),
		FaultModel:        dram.DefaultFaultModel(),
		NumCPUs:           2,
		PCPBatch:          31,
		PCPHigh:           186,
		MinWatermarkPages: 32,
		Seed:              1,
		DrainOnIdle:       true,
	}
}

// Errors returned by the kernel layer.
var (
	// ErrSegv reports an access outside every VMA.
	ErrSegv = errors.New("kernel: segmentation fault")
	// ErrExited reports a syscall on a dead process.
	ErrExited = errors.New("kernel: process has exited")
)

// Machine is one simulated computer.
type Machine struct {
	cfg   Config
	dev   *dram.Device
	phys  *mm.PhysMem
	procs map[Pid]*Process
	cpus  []*cpu
	next  Pid
	rng   *stats.RNG
}

type cpu struct {
	id       int
	runnable map[Pid]bool
}

// NewMachine builds the DRAM device, physical allocator and CPUs.
func NewMachine(cfg Config) (*Machine, error) {
	mapper, err := dram.NewNamedMapper(cfg.Mapper, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	dev, err := dram.NewDeviceWithMapper(mapper, cfg.FaultModel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pmCfg := mm.Config{
		TotalBytes:        cfg.Geometry.TotalBytes(),
		NumCPUs:           cfg.NumCPUs,
		PCPBatch:          cfg.PCPBatch,
		PCPHigh:           cfg.PCPHigh,
		PCPFIFO:           cfg.PCPFIFO,
		DMALimit:          16 << 20,
		DMA32Limit:        4 << 30,
		MinWatermarkPages: cfg.MinWatermarkPages,
	}
	phys, err := mm.New(pmCfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		dev:   dev,
		phys:  phys,
		procs: make(map[Pid]*Process),
		rng:   stats.NewRNG(cfg.Seed ^ 0x6b65726e656c), // "kernel"
		next:  1,
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		m.cpus = append(m.cpus, &cpu{id: i, runnable: make(map[Pid]bool)})
	}
	return m, nil
}

// DRAM exposes the memory device (the attacker-visible hardware).
func (m *Machine) DRAM() *dram.Device { return m.dev }

// Phys exposes the physical allocator for inspection (tests, cmd/memsim).
func (m *Machine) Phys() *mm.PhysMem { return m.phys }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// RNG returns the machine's deterministic random stream.
func (m *Machine) RNG() *stats.RNG { return m.rng }

// NumCPUs returns the CPU count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// Process is one simulated process pinned to a CPU.
type Process struct {
	pid     Pid
	name    string
	cpuID   int
	state   ProcState
	as      *vm.AddressSpace
	m       *Machine
	touched uint64 // demand faults served
	// CapSysAdmin grants access to pagemap PFN queries (Section VI: "since
	// Linux 4.0, only users with the CAP_SYS_ADMIN capability can get
	// PFNs").
	CapSysAdmin bool

	// hammerAddrs is HammerLoop's translated-address scratch buffer, kept
	// on the process so repeated hammer bursts (the attack's steady state)
	// allocate nothing.
	hammerAddrs []dram.Addr
}

// Spawn creates a running process pinned to the given CPU.
func (m *Machine) Spawn(name string, cpuID int) (*Process, error) {
	if cpuID < 0 || cpuID >= len(m.cpus) {
		return nil, fmt.Errorf("kernel: no cpu %d", cpuID)
	}
	p := &Process{
		pid:   m.next,
		name:  name,
		cpuID: cpuID,
		state: StateRunning,
		as:    vm.NewAddressSpace(),
		m:     m,
	}
	m.next++
	m.procs[p.pid] = p
	m.cpus[cpuID].runnable[p.pid] = true
	return p, nil
}

// Pid returns the process id.
func (p *Process) Pid() Pid { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// CPU returns the CPU the process is pinned to.
func (p *Process) CPU() int { return p.cpuID }

// State returns the scheduling state.
func (p *Process) State() ProcState { return p.state }

// AddressSpace exposes the process's VMAs and page table for inspection.
func (p *Process) AddressSpace() *vm.AddressSpace { return p.as }

// DemandFaults returns how many demand-paging faults the process has taken.
func (p *Process) DemandFaults() uint64 { return p.touched }

// Sleep marks the process inactive.  If that leaves the CPU with no
// runnable process the kernel drains the CPU's page frame cache — the
// behaviour that forces the paper's attacker to busy-wait.
func (p *Process) Sleep() {
	if p.state == StateExited {
		return
	}
	p.state = StateSleeping
	c := p.m.cpus[p.cpuID]
	delete(c.runnable, p.pid)
	if p.m.cfg.DrainOnIdle && len(c.runnable) == 0 {
		p.m.phys.DrainCPU(p.cpuID)
	}
}

// Wake marks the process runnable again.
func (p *Process) Wake() {
	if p.state == StateExited {
		return
	}
	p.state = StateRunning
	p.m.cpus[p.cpuID].runnable[p.pid] = true
}

// Exit terminates the process, unmapping every VMA and releasing all frames
// to the CPU's page frame cache / buddy allocator.
func (p *Process) Exit() {
	if p.state == StateExited {
		return
	}
	for _, v := range p.as.VMAs() {
		_ = p.Munmap(v.Start, v.Len())
	}
	p.state = StateExited
	c := p.m.cpus[p.cpuID]
	delete(c.runnable, p.pid)
	delete(p.m.procs, p.pid)
	if p.m.cfg.DrainOnIdle && len(c.runnable) == 0 {
		p.m.phys.DrainCPU(p.cpuID)
	}
}

// Mmap creates an anonymous mapping of length bytes and returns its base
// address.  No physical frames are allocated until the pages are touched.
func (p *Process) Mmap(length uint64) (vm.VirtAddr, error) {
	if p.state == StateExited {
		return 0, ErrExited
	}
	return p.as.Map(0, length, vm.ProtRead|vm.ProtWrite)
}

// MmapAt is Mmap with an address hint.
func (p *Process) MmapAt(hint vm.VirtAddr, length uint64) (vm.VirtAddr, error) {
	if p.state == StateExited {
		return 0, ErrExited
	}
	return p.as.Map(hint, length, vm.ProtRead|vm.ProtWrite)
}

// Munmap removes [addr, addr+length).  Present frames are freed on the
// process's CPU: order-0 frees land in the per-CPU page frame cache, which
// is the planting primitive of the attack.
func (p *Process) Munmap(addr vm.VirtAddr, length uint64) error {
	if p.state == StateExited {
		return ErrExited
	}
	var freeErr error
	err := p.as.Unmap(addr, length, func(_ vm.VirtAddr, pte vm.PTE) {
		if e := p.m.phys.FreePages(p.cpuID, pte.PFN, 0); e != nil && freeErr == nil {
			freeErr = e
		}
	})
	if err != nil {
		return err
	}
	return freeErr
}

// fault serves a demand-paging fault for the page containing va: a fresh
// order-0 frame is allocated through the CPU's page frame cache, zeroed,
// and mapped.
func (p *Process) fault(va vm.VirtAddr) (vm.PTE, error) {
	area, ok := p.as.FindVMA(va)
	if !ok {
		return vm.PTE{}, fmt.Errorf("%w at %#x", ErrSegv, uint64(va))
	}
	pfn, err := p.m.phys.AllocPages(p.cpuID, 0)
	if err != nil {
		return vm.PTE{}, err
	}
	// The kernel hands out zeroed pages.  Zeroing bypasses the activation
	// model: it is a streaming store whose row pressure is irrelevant to
	// the attack statistics and would otherwise dominate simulation cost.
	p.m.dev.FillNoActivate(pfn.Phys(), vm.PageSize, 0)
	writable := area.Prot&vm.ProtWrite != 0
	if err := p.as.PT.Map(va.PageBase(), pfn, writable); err != nil {
		// Unreachable unless the page table is corrupted; surface loudly.
		return vm.PTE{}, err
	}
	p.touched++
	pte, _ := p.as.PT.Lookup(va)
	return pte, nil
}

// translate resolves va to a physical address, faulting the page in on
// first touch.
func (p *Process) translate(va vm.VirtAddr) (uint64, error) {
	if p.state == StateExited {
		return 0, ErrExited
	}
	if pa, ok := p.as.PT.Translate(va); ok {
		return pa, nil
	}
	if _, err := p.fault(va); err != nil {
		return 0, err
	}
	pa, _ := p.as.PT.Translate(va)
	return pa, nil
}

// Load reads one byte from the process's address space.  The access
// reaches DRAM (the simulation behaves as if the line was flushed, which is
// the state a Rowhammer loop maintains).
func (p *Process) Load(va vm.VirtAddr) (byte, error) {
	pa, err := p.translate(va)
	if err != nil {
		return 0, err
	}
	return p.m.dev.Read(pa), nil
}

// Store writes one byte.
func (p *Process) Store(va vm.VirtAddr, v byte) error {
	pa, err := p.translate(va)
	if err != nil {
		return err
	}
	p.m.dev.Write(pa, v)
	return nil
}

// ReadBytes copies n bytes starting at va.  The first byte of each page
// goes through the activation model; the rest of the page is bulk-copied,
// matching a cache-line-granular burst rather than per-byte activations.
func (p *Process) ReadBytes(va vm.VirtAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := p.ReadBytesInto(va, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto is ReadBytes into a caller-provided buffer, for hot paths
// (flip probing) that reuse one buffer across many reads and must not
// allocate per call.
func (p *Process) ReadBytesInto(va vm.VirtAddr, out []byte) error {
	n := len(out)
	for i := 0; i < n; {
		pageEnd := int(uint64(va.PageBase()) + vm.PageSize - uint64(va))
		chunk := n - i
		if chunk > pageEnd {
			chunk = pageEnd
		}
		pa, err := p.translate(va)
		if err != nil {
			return err
		}
		p.m.dev.Read(pa) // one activation per page touch
		p.m.dev.ReadRangeNoActivate(pa, out[i:i+chunk])
		i += chunk
		va += vm.VirtAddr(chunk)
	}
	return nil
}

// WriteBytes stores data starting at va, with the same activation
// granularity as ReadBytes.
func (p *Process) WriteBytes(va vm.VirtAddr, data []byte) error {
	for i := 0; i < len(data); {
		pageEnd := int(uint64(va.PageBase()) + vm.PageSize - uint64(va))
		chunk := len(data) - i
		if chunk > pageEnd {
			chunk = pageEnd
		}
		pa, err := p.translate(va)
		if err != nil {
			return err
		}
		p.m.dev.Read(pa) // open the row once
		p.m.dev.WriteRangeNoActivate(pa, data[i:i+chunk])
		i += chunk
		va += vm.VirtAddr(chunk)
	}
	return nil
}

// Touch demand-faults every page in [va, va+length) by writing its first
// byte, the way the paper's attacker must "store some data into the
// allocated pages".
func (p *Process) Touch(va vm.VirtAddr, length uint64) error {
	for off := uint64(0); off < length; off += vm.PageSize {
		if err := p.Store(va+vm.VirtAddr(off), 1); err != nil {
			return err
		}
	}
	return nil
}

// Hammer performs one activation of the row backing va without reading data
// through the cache model; it is the CLFLUSH+load primitive.
func (p *Process) Hammer(va vm.VirtAddr) error {
	pa, err := p.translate(va)
	if err != nil {
		return err
	}
	p.m.dev.ActivateRow(pa)
	return nil
}

// HammerLoop issues rounds of activations cycling through vas in order —
// the access-flush-access loop.  Each address is translated once into a
// scratch buffer reused across calls, and the device runs the rounds as
// one dram.Device.HammerCycle: the activation sequence, flips and counters
// are exactly those of calling Hammer per address per round, but steady
// rounds advance in bulk, so a call costs far less than its activation
// count suggests.  Steady-state hammering allocates nothing (the zero-alloc
// contract BENCH_trajectory.json pins).
func (p *Process) HammerLoop(vas []vm.VirtAddr, rounds int) error {
	if cap(p.hammerAddrs) < len(vas) {
		p.hammerAddrs = make([]dram.Addr, len(vas))
	}
	addrs := p.hammerAddrs[:len(vas)]
	for i, va := range vas {
		pa, err := p.translate(va)
		if err != nil {
			return err
		}
		addrs[i] = p.m.dev.Mapper().ToDRAM(pa)
	}
	p.m.dev.HammerCycle(addrs, rounds)
	return nil
}

// Translate resolves a virtual address without faulting; ok is false for
// untouched pages.
func (p *Process) Translate(va vm.VirtAddr) (uint64, bool) {
	if p.state == StateExited {
		return 0, false
	}
	return p.as.PT.Translate(va)
}

// PagemapPFN mimics /proc/pid/pagemap: it returns the PFN backing va, but
// only for CAP_SYS_ADMIN processes ("since Linux 4.0, only users with the
// CAP_SYS_ADMIN capability can get PFNs", Section VI).
func (p *Process) PagemapPFN(va vm.VirtAddr) (mm.PFN, error) {
	if !p.CapSysAdmin {
		return 0, errors.New("kernel: pagemap requires CAP_SYS_ADMIN")
	}
	pte, ok := p.as.PT.Lookup(va)
	if !ok {
		return 0, fmt.Errorf("%w: page %#x not present", ErrSegv, uint64(va))
	}
	return pte.PFN, nil
}

// Processes returns the live processes, for inspection.
func (m *Machine) Processes() []*Process {
	out := make([]*Process, 0, len(m.procs))
	for _, p := range m.procs {
		out = append(out, p)
	}
	return out
}
