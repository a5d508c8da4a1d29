package dram

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"explframe/internal/stats"
)

// referenceCycle is the definition HammerCycle must match: every address
// activated in turn, rounds times, through the per-activation path.
func referenceCycle(d *Device, addrs []Addr, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, a := range addrs {
			d.activate(a)
		}
	}
}

// cycleGeometry is small enough that a reference device steps through
// every activation quickly, with enough rows for cycles and their
// neighbourhoods to sit away from the bank edges or on them.
var cycleGeometry = Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 2, Rows: 64, RowBytes: 1024}

// newCyclePair builds two identical devices holding the same random data,
// one to drive through referenceCycle and one through HammerCycle.
func newCyclePair(tb testing.TB, model FaultModel, seed uint64) (ref, bat *Device) {
	tb.Helper()
	data := make([]byte, cycleGeometry.TotalBytes())
	stats.NewRNG(seed ^ 0x5eed).Bytes(data)
	build := func() *Device {
		d, err := NewDevice(cycleGeometry, model, seed)
		if err != nil {
			tb.Fatal(err)
		}
		d.WriteRangeNoActivate(0, data)
		d.EnableFlipLog()
		return d
	}
	return build(), build()
}

// diffDevices describes the first observable difference between the two
// devices' disturbance state, or returns "" when there is none.  It drains
// both flip logs and draws the next generator value from each, which keeps
// the pair in lockstep for further steps.
func diffDevices(ref, bat *Device) string {
	if rs, bs := ref.Stats(), bat.Stats(); rs != bs {
		return fmt.Sprintf("stats: reference %+v, batched %+v", rs, bs)
	}
	if rl, bl := ref.DrainFlipLog(), bat.DrainFlipLog(); !slices.Equal(rl, bl) {
		return fmt.Sprintf("flip log: reference %v, batched %v", rl, bl)
	}
	if rv, bv := ref.rng.Uint64(), bat.rng.Uint64(); rv != bv {
		return fmt.Sprintf("next generator draw: reference %#x, batched %#x", rv, bv)
	}
	if ref.sinceRefresh != bat.sinceRefresh {
		return fmt.Sprintf("sinceRefresh: reference %d, batched %d", ref.sinceRefresh, bat.sinceRefresh)
	}
	if !slices.Equal(ref.openRow, bat.openRow) {
		return fmt.Sprintf("openRow: reference %v, batched %v", ref.openRow, bat.openRow)
	}
	if !slices.Equal(ref.dirty, bat.dirty) {
		return fmt.Sprintf("dirty: reference %v, batched %v", ref.dirty, bat.dirty)
	}
	for si := range ref.rowStates {
		r, b := &ref.rowStates[si], &bat.rowStates[si]
		if math.Float64bits(r.disturb) != math.Float64bits(b.disturb) {
			return fmt.Sprintf("row state %d: disturb reference %v (%#x), batched %v (%#x)",
				si, r.disturb, math.Float64bits(r.disturb), b.disturb, math.Float64bits(b.disturb))
		}
		if r.minThr != b.minThr {
			return fmt.Sprintf("row state %d: minThr reference %v, batched %v", si, r.minThr, b.minThr)
		}
		for ci := range r.cells {
			if rc, bc := *r.cells[ci], *b.cells[ci]; rc != bc {
				return fmt.Sprintf("row state %d cell %d: reference %+v, batched %+v", si, ci, rc, bc)
			}
		}
	}
	return ""
}

// randomCycle generates the cycle shapes the equivalence checks drive:
// steady double-, single- and many-sided cycles the batched path takes,
// and row-hit and repeated-row cycles it must leave to the reference.
func randomCycle(rng *stats.RNG) []Addr {
	bank := rng.Intn(cycleGeometry.Banks)
	v := rng.Intn(cycleGeometry.Rows)
	at := func(b, row int) Addr { return Addr{Bank: b, Row: row} }
	clamp := func(row int) int { return min(max(row, 0), cycleGeometry.Rows-1) }
	switch rng.Intn(7) {
	case 0: // double-sided
		return []Addr{at(bank, clamp(v-1)), at(bank, clamp(v+1))}
	case 1: // single-sided: a neighbour plus a far conflict row
		return []Addr{at(bank, clamp(v-1)), at(bank, (v+32)%cycleGeometry.Rows)}
	case 2: // many-sided: double-sided plus decoys
		c := []Addr{at(bank, clamp(v-1)), at(bank, clamp(v+1))}
		for i := rng.Intn(4); i >= 0; i-- {
			c = append(c, at(bank, rng.Intn(cycleGeometry.Rows)))
		}
		return c
	case 3: // one address per bank: every later round is a row hit
		if rng.Intn(2) == 0 {
			return []Addr{at(bank, v)}
		}
		return []Addr{at(0, v), at(1, clamp(v+1))}
	case 4: // a row repeated back to back: a hit inside every round
		return []Addr{at(bank, v), at(bank, v), at(bank, clamp(v+2))}
	case 5: // a row repeated across the cycle: no hits, doubled weights
		return []Addr{at(bank, clamp(v-1)), at(bank, clamp(v+1)), at(bank, clamp(v-1)), at(bank, clamp(v+1))}
	default: // anything, over both banks
		c := make([]Addr, rng.Intn(6)+1)
		for i := range c {
			c[i] = at(rng.Intn(cycleGeometry.Banks), clamp(v+rng.Intn(9)-4))
		}
		return c
	}
}

// plantRoundCells plants, on both devices, weak cells next to the cycle
// whose thresholds land exactly on a round boundary in exact arithmetic:
// an integer multiple of the per-round disturbance a row receives.
func plantRoundCells(rng *stats.RNG, ref, bat *Device, cycle []Addr) {
	w := ref.model.NeighbourWeight
	perRound := map[[2]int]float64{}
	for _, a := range cycle {
		for _, n := range []struct {
			dr int
			w  float64
		}{{-1, 1}, {1, 1}, {-2, w}, {2, w}} {
			if r := a.Row + n.dr; r >= 0 && r < cycleGeometry.Rows && n.w > 0 {
				perRound[[2]int{a.Bank, r}] += n.w
			}
		}
	}
	keys := make([][2]int, 0, len(perRound))
	for key := range perRound {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(x, y [2]int) int { return (x[0]-y[0])*cycleGeometry.Rows + x[1] - y[1] })
	for _, key := range keys {
		inc := perRound[key]
		// The smallest round count m with m·inc integral is at most 20 for
		// weights of 1, 0.25 and 0.2.
		for m := 1; m <= 20; m++ {
			if t := inc * float64(m); t == math.Trunc(t) {
				wc := WeakCell{
					Bank: key[0], Row: key[1], ByteInRow: rng.Intn(cycleGeometry.RowBytes), Bit: uint8(rng.Intn(8)),
					Threshold: int(t) * (1 + rng.Intn(40)), FlipTo: uint8(rng.Intn(2)),
				}
				ref.PlantWeakCell(wc)
				bat.PlantWeakCell(wc)
				break
			}
		}
	}
}

// cycleEquivalence drives a reference and a batched device through the
// same random sequence of hammer cycles, reads, writes and refreshes,
// comparing their full state after every step.
func cycleEquivalence(t *testing.T, model FaultModel, seed uint64, steps, maxRounds int) {
	t.Helper()
	ref, bat := newCyclePair(t, model, seed)
	rng := stats.NewRNG(seed)
	for step := 0; step < steps; step++ {
		var what string
		switch rng.Intn(8) {
		case 0:
			pa := uint64(rng.Intn(int(ref.Size())))
			what = fmt.Sprintf("read %#x", pa)
			if rv, bv := ref.Read(pa), bat.Read(pa); rv != bv {
				t.Fatalf("step %d (%s): reference read %#x, batched %#x", step, what, rv, bv)
			}
		case 1:
			pa, v := uint64(rng.Intn(int(ref.Size()))), byte(rng.Intn(256))
			what = fmt.Sprintf("write %#x", pa)
			ref.Write(pa, v)
			bat.Write(pa, v)
		case 2:
			what = "refresh"
			ref.Refresh()
			bat.Refresh()
		default:
			cycle := randomCycle(rng)
			if rng.Intn(2) == 0 {
				plantRoundCells(rng, ref, bat, cycle)
			}
			rounds := rng.Intn(maxRounds + 1)
			what = fmt.Sprintf("cycle %v x %d", cycle, rounds)
			referenceCycle(ref, cycle, rounds)
			bat.HammerCycle(cycle, rounds)
		}
		if diff := diffDevices(ref, bat); diff != "" {
			t.Fatalf("step %d (%s): %s", step, what, diff)
		}
	}
}

// cycleModel is the fault model the equivalence checks vary: thresholds a
// few hundred to a few thousand disturbance units, so cells cross within a
// cycle, and a dense weak-cell population so most rows carry state.
func cycleModel(weight, reliability float64, refresh uint64, trr, ecc bool) FaultModel {
	m := FaultModel{
		WeakCellDensity: 2e-4,
		BaseThreshold:   300,
		ThresholdSpread: 4,
		NeighbourWeight: weight,
		RefreshInterval: refresh,
		FlipReliability: reliability,
	}
	if trr {
		m.TRR = TRRConfig{Enabled: true, TrackerSize: 2, Threshold: 150}
	}
	if ecc {
		m.ECC = ECCSecDed
	}
	return m
}

// HammerCycle must be observationally identical to the per-activation
// loop — flips in order, counters, generator position, every row's
// disturbance bits and cells, row buffers, the refresh counter and the
// dirty list — with TRR and ECC on and off, dyadic, non-dyadic and zero
// neighbour weights, certain and unreliable flips, refresh intervals that
// fall mid-round, and cells whose thresholds sit on round boundaries.
func TestHammerCycleEquivalence(t *testing.T) {
	seed := uint64(1)
	for _, trr := range []bool{false, true} {
		for _, ecc := range []bool{false, true} {
			for _, w := range []float64{0.25, 0.2, 0} {
				for _, rel := range []float64{1, 0.98} {
					for _, refresh := range []uint64{997, 4099, 1 << 20} {
						seed++
						name := fmt.Sprintf("trr=%v/ecc=%v/w=%v/rel=%v/refresh=%d", trr, ecc, w, rel, refresh)
						model := cycleModel(w, rel, refresh, trr, ecc)
						t.Run(name, func(t *testing.T) { cycleEquivalence(t, model, seed, 30, 3000) })
					}
				}
			}
		}
	}
}

// A bulk step runs every planned row to the end of its binade: after 512
// rounds of a double-sided cycle with weight 0.25, each neighbour row sits
// at the bottom of a binade (1024, 512 or 128) and absorbs exactly 511
// more rounds before its next addition would cross into the next one.
func TestHammerCycleBulkStepFillsBinade(t *testing.T) {
	model := cycleModel(0.25, 1, 1<<20, false, false)
	model.BaseThreshold = 1 << 20 // nothing crosses
	_, d := newCyclePair(t, model, 5)
	cycle := []Addr{{Bank: 0, Row: 30}, {Bank: 0, Row: 32}}
	d.HammerCycle(cycle, 512)
	if len(d.cycleRows) == 0 {
		t.Fatal("the cycle planned no weak-cell rows")
	}
	if k := d.bulkRounds(1<<20, len(cycle)); k != 511 {
		t.Fatalf("bulk step %d rounds, want 511", k)
	}
}

// A long steady cycle stays equivalent, and steady calls allocate nothing.
func TestHammerCycleLongSteadyCycle(t *testing.T) {
	ref, bat := newCyclePair(t, cycleModel(0.2, 0.98, 1<<20, false, false), 3)
	cycle := []Addr{{Bank: 1, Row: 30}, {Bank: 1, Row: 32}}
	const rounds = 200_000
	referenceCycle(ref, cycle, rounds)
	bat.HammerCycle(cycle, rounds)
	if diff := diffDevices(ref, bat); diff != "" {
		t.Fatal(diff)
	}
	if got := bat.Stats().Activations; got != 2*rounds {
		t.Fatalf("activations %d, want %d", got, 2*rounds)
	}
	if n := testing.AllocsPerRun(5, func() { bat.HammerCycle(cycle, rounds) }); n != 0 {
		t.Fatalf("steady HammerCycle allocates %.1f times per call", n)
	}
}

// FuzzHammerCycleEquivalence lets the fuzzer pick the cycle (rows and
// banks), round count, neighbour weight, flip reliability, refresh
// interval and TRR setting, and checks HammerCycle against the
// per-activation loop after each of several repetitions.
func FuzzHammerCycleEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0x1f, 0x21}, uint16(3000), 0.25, 1.0, uint16(997), false)
	f.Add(uint64(2), []byte{0x1f, 0x21, 0x1f, 0x21}, uint16(2500), 0.2, 0.98, uint16(4099), false)
	f.Add(uint64(3), []byte{0x10, 0x10, 0x90}, uint16(400), 0.0, 0.98, uint16(333), true)
	f.Add(uint64(4), []byte{0x05}, uint16(100), 0.3, 0.5, uint16(7), false)
	f.Fuzz(func(t *testing.T, seed uint64, cycleBytes []byte, rounds uint16, weight, reliability float64, refresh uint16, trr bool) {
		if len(cycleBytes) == 0 || len(cycleBytes) > 8 {
			return
		}
		if !(weight >= 0 && weight <= 1) {
			weight = 0.25
		}
		if !(reliability >= 0.5 && reliability <= 1) {
			reliability = 1
		}
		cycle := make([]Addr, len(cycleBytes))
		for i, b := range cycleBytes {
			cycle[i] = Addr{Bank: int(b>>7) % cycleGeometry.Banks, Row: int(b&0x7f) % cycleGeometry.Rows}
		}
		ref, bat := newCyclePair(t, cycleModel(weight, reliability, uint64(refresh)+1, trr, false), seed)
		rng := stats.NewRNG(seed)
		for rep := 0; rep < 3; rep++ {
			plantRoundCells(rng, ref, bat, cycle)
			n := int(rounds) % 4000
			referenceCycle(ref, cycle, n)
			bat.HammerCycle(cycle, n)
			if diff := diffDevices(ref, bat); diff != "" {
				t.Fatalf("repetition %d: %s", rep, diff)
			}
		}
	})
}

// quantum is the whole exactness argument of the bulk step: when it
// reports ok, adding w to any float64 of the binade moves it by exactly q
// ulps; when it reports a tie, the step really does depend on the value.
func TestQuantumMatchesFloatAddition(t *testing.T) {
	rng := stats.NewRNG(9)
	weights := []float64{1, 0.25, 0.2, 0.3, 1.0 / 3}
	for i := 0; i < 200; i++ {
		weights = append(weights, rng.Float64())
	}
	for _, w := range weights {
		for e := -12; e <= 30; e++ {
			exp := e - 52 // the binade [2^e, 2^(e+1))
			q, ok := quantum(w, exp)
			if !ok {
				// Ties go to even: consecutive accumulators step differently.
				a := float64(1 << 52)
				step := func(a float64) float64 { return math.Ldexp(a, exp) + w - math.Ldexp(a, exp) }
				if step(a) == step(a+1) {
					t.Fatalf("w=%v binade 2^%d: quantum reports a tie but the step is uniform", w, e)
				}
				continue
			}
			for j := 0; j < 20; j++ {
				A := uint64(1<<52) + uint64(rng.Intn(1<<52))
				if float64(A)+q >= binadeTop {
					continue
				}
				got := math.Ldexp(float64(A), exp) + w
				if want := math.Ldexp(float64(A)+q, exp); got != want {
					t.Fatalf("w=%v binade 2^%d, A=%d: float sum %v, quantum predicts %v", w, e, A, got, want)
				}
			}
		}
	}
	// 0.2 is an odd multiple of 2^-54, so in the binade [0.5, 1) it sits
	// exactly halfway between two ulp multiples.
	if _, ok := quantum(0.2, -53); ok {
		t.Fatal("quantum(0.2) in [0.5, 1) must report the tie")
	}
}

// A refresh at the very end of a round leaves every planned row at zero.
// With cells only in rows the cycle reaches at the far weight, a bulk step
// would still fit in their binade; it must wait for a replayed round to put
// them back on the dirty list in reference order.
func TestHammerCycleReplaysAfterRefresh(t *testing.T) {
	for _, w := range []float64{0.25, 0.2} {
		model := cycleModel(w, 1, 1000, false, false)
		model.WeakCellDensity = 0
		ref, bat := newCyclePair(t, model, 11)
		for _, row := range []int{17, 19, 21, 23} { // v-3, v-1, v+1, v+3 around v = 20
			wc := WeakCell{Bank: 1, Row: row, ByteInRow: row, Bit: 3, Threshold: 1 << 20}
			ref.PlantWeakCell(wc)
			bat.PlantWeakCell(wc)
		}
		cycle := []Addr{{Bank: 1, Row: 19}, {Bank: 1, Row: 21}}
		referenceCycle(ref, cycle, 1700)
		bat.HammerCycle(cycle, 1700)
		if diff := diffDevices(ref, bat); diff != "" {
			t.Fatalf("w=%v: %s", w, diff)
		}
	}
}
