package machine

import (
	"runtime"
	"testing"

	"explframe/internal/dram"
)

// Steady-state HammerLoop must not allocate on any registered machine —
// the zero-alloc contract behind `benchtab -check-trajectory`.  The race
// detector allocates on its own, so under -race the measurement is only
// reported, not asserted.
func TestHammerLoopSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() && !RaceEnabled {
		// The warm-up hammers a few refresh windows per machine; keep the
		// full sweep out of -short except where CI already pays for -race.
		t.Skip("steady-state warm-up is slow; run without -short")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			allocs, err := HammerLoopSteadyStateAllocs(MustGet(name), 1)
			if err != nil {
				t.Fatal(err)
			}
			if RaceEnabled {
				t.Logf("%s: %.2f allocs/run under -race (not asserted)", name, allocs)
				return
			}
			if allocs != 0 {
				t.Errorf("steady-state HammerLoop allocates %.2f times per call; want 0", allocs)
			}
		})
	}
}

// Constructing a device for a multi-GiB machine must not materialise the
// module: the ISSUE pins < 64 MiB of heap growth for an 8 GiB geometry with
// the default weak-cell population and no writes.
func TestLargeDeviceConstructionIsSparse(t *testing.T) {
	g := dram.Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 16, Rows: 1 << 16, RowBytes: 8192}
	if got := g.TotalBytes(); got != 8<<30 {
		t.Fatalf("geometry is %d bytes, want 8 GiB", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := dram.NewDevice(g, dram.DefaultFaultModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(64 << 20); grew >= limit {
		t.Errorf("NewDevice for 8 GiB allocated %d MiB; want < %d MiB", grew>>20, limit>>20)
	}
	if got := d.MaterializedBytes(); got != 0 {
		t.Errorf("untouched device materialised %d bytes of backing store", got)
	}
	// Sanity: the device still behaves like memory.
	pa := d.Size() - 1
	if v := d.ReadNoActivate(pa); v != 0 {
		t.Errorf("untouched byte reads %#x, want 0", v)
	}
	d.WriteNoActivate(pa, 0xA5)
	if v := d.ReadNoActivate(pa); v != 0xA5 {
		t.Errorf("read-back %#x, want 0xA5", v)
	}
}

// The shared hammer bench must time disturbance, not row-buffer hits: on
// every registered machine its two aggressors share a bank on different
// rows, so each round of HammerLoop is two activations and no row hit.
func TestHammerBenchPairActivates(t *testing.T) {
	const rounds = 100_000
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m, proc, vas, err := newHammerBench(MustGet(name), 1)
			if err != nil {
				t.Fatal(err)
			}
			dev := m.DRAM()
			before := dev.Stats()
			if err := proc.HammerLoop(vas, rounds); err != nil {
				t.Fatal(err)
			}
			after := dev.Stats()
			if got := after.Activations - before.Activations; got != 2*rounds {
				t.Errorf("activations %d, want %d", got, 2*rounds)
			}
			if got := after.RowHits - before.RowHits; got != 0 {
				t.Errorf("row hits %d, want 0", got)
			}
		})
	}
}
