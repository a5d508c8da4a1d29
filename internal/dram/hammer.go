package dram

import (
	"cmp"
	"math"
	"slices"
)

// This file holds the device's hammer loop.  A templating sweep issues
// tens of thousands of rounds per aggressor set, and between the rare
// rounds where something happens — a cell crosses its threshold, the
// refresh sweep runs — every round does the same thing: each neighbour
// row's disturbance grows by a fixed amount and nothing else changes.
// HammerCycle advances such stretches in bulk and replays every other
// round through the per-activation path, which stays the reference.
//
// Exactness.  A bulk step must leave every disturbance accumulator with
// the bits the sequential additions would have produced.  A positive
// float64 acc in the binade [2^e, 2^(e+1)) is an integer multiple A of its
// ulp u = 2^(e-52), with 2^52 <= A < 2^53.  Adding a weight w gives the
// exact sum (A + w/u)·u, and rounding to nearest lands on (A + q)·u, where
// q is w/u rounded to the nearest integer, as long as the result stays
// below 2^(e+1) and w/u is not exactly halfway between two integers (ties
// go to the even neighbour and so depend on A).  The quantum q is then
// independent of acc: within one binade, s additions of w add exactly s·q
// ulps.  The dyadic weights 1.0 and 0.25 make q = w/u exactly; the ddr4
// profile's 0.2 rounds, but to the same quantum on every addition.  So
// HammerCycle bulk-advances only while every disturbed row stays inside
// its binade and below its lowest armed threshold — no addition in the
// skipped rounds would have scanned a cell, drawn from the generator or
// touched the dirty list — and replays the round that crosses.

// cycleRow is one weak-cell row a hammer cycle disturbs, with how often a
// round of the cycle disturbs it at each weight.
type cycleRow struct {
	si   int32
	near uint64 // distance-1 disturbances (weight 1.0) per round
	far  uint64 // distance-2 disturbances (NeighbourWeight) per round

	// The row's binade coordinates, set by bulkRounds for applyBulk:
	// disturb = base·2^exp, and a round adds step·2^exp.
	base, step uint64
	exp        int
}

// binadeTop is 2^53: every float64 of a binade is an integer multiple of
// the binade's ulp below this many ulps.
const binadeTop = 1 << 53

// HammerCycle issues rounds of activations cycling through addrs in order:
// observably the same as activating each address in turn, rounds times —
// the same flips in the same order, counters, generator draws, dirty list
// and row-buffer state.  Each address's bank group is resolved once per
// call.  When TRR is off and the cycle never finds its row already open
// once it is running, the steady rounds between threshold crossings and
// refresh sweeps are applied in bulk (see the exactness note above);
// otherwise every round runs activation by activation.
func (d *Device) HammerCycle(addrs []Addr, rounds int) {
	if rounds <= 0 || len(addrs) == 0 {
		return
	}
	bgs := d.cycleBanks[:0]
	for _, a := range addrs {
		bgs = append(bgs, d.mapper.BankGroup(a))
	}
	d.cycleBanks = bgs
	d.hammerRound(addrs, bgs)
	if d.trr != nil || !d.steadyMisses(addrs, bgs) {
		for r := 1; r < rounds; r++ {
			d.hammerRound(addrs, bgs)
		}
		return
	}
	d.planCycle(addrs, bgs)
	for r := 1; r < rounds; {
		if k := d.bulkRounds(rounds-r, len(addrs)); k > 0 {
			d.applyBulk(k, len(addrs))
			r += k
			continue
		}
		d.hammerRound(addrs, bgs)
		r++
	}
}

// hammerRound activates the cycle once through the per-activation path.
func (d *Device) hammerRound(addrs []Addr, bgs []int) {
	for i, a := range addrs {
		d.activateAt(bgs[i], a.Row)
	}
}

// steadyMisses reports whether every activation after the cycle's first
// round misses the row buffer: each address's previous same-bank address
// in the cycle sits on a different row.  It plays one round of row-buffer
// bookkeeping on openRow, which a full round of the cycle leaves as it
// found it, so it must run right after one.
func (d *Device) steadyMisses(addrs []Addr, bgs []int) bool {
	misses := true
	for i, a := range addrs {
		if d.openRow[bgs[i]] == a.Row {
			misses = false
		}
		d.openRow[bgs[i]] = a.Row
	}
	return misses
}

// planCycle collects the weak-cell rows a round of the cycle disturbs —
// rows r±1 at weight 1.0 and r±2 at NeighbourWeight around each address,
// rows without weak cells dropped — into cycleRows, one entry per row.
func (d *Device) planCycle(addrs []Addr, bgs []int) {
	rows := d.cycleRows[:0]
	for i, a := range addrs {
		rows = d.planRow(rows, bgs[i], a.Row-1, false)
		rows = d.planRow(rows, bgs[i], a.Row+1, false)
		if d.model.NeighbourWeight > 0 {
			rows = d.planRow(rows, bgs[i], a.Row-2, true)
			rows = d.planRow(rows, bgs[i], a.Row+2, true)
		}
	}
	slices.SortFunc(rows, func(x, y cycleRow) int { return cmp.Compare(x.si, y.si) })
	merged := rows[:0]
	for _, r := range rows {
		if n := len(merged); n > 0 && merged[n-1].si == r.si {
			merged[n-1].near += r.near
			merged[n-1].far += r.far
			continue
		}
		merged = append(merged, r)
	}
	d.cycleRows = merged
}

// planRow appends (bg, row) to the plan when the row exists and holds weak
// cells.
func (d *Device) planRow(rows []cycleRow, bg, row int, far bool) []cycleRow {
	if row < 0 || row >= d.geom.Rows {
		return rows
	}
	si := d.rowIdx[bg*d.geom.Rows+row]
	if si < 0 {
		return rows
	}
	if far {
		return append(rows, cycleRow{si: si, far: 1})
	}
	return append(rows, cycleRow{si: si, near: 1})
}

// bulkRounds returns how many whole rounds of perRound activations can be
// applied in bulk from here, at most maxRounds: none may reach the refresh
// sweep, and every planned row must stay inside its binade and below its
// lowest armed threshold.  0 means the next round must be replayed.
func (d *Device) bulkRounds(maxRounds, perRound int) int {
	if d.sinceRefresh >= d.model.RefreshInterval {
		return 0
	}
	k := (d.model.RefreshInterval - 1 - d.sinceRefresh) / uint64(perRound)
	if m := uint64(maxRounds); m < k {
		k = m
	}
	for i := range d.cycleRows {
		if k == 0 {
			break
		}
		if kr := d.rowBulkRounds(&d.cycleRows[i]); kr < k {
			k = kr
		}
	}
	return int(k)
}

// rowBulkRounds returns how many rounds one planned row can absorb in bulk
// and records its binade coordinates.
func (d *Device) rowBulkRounds(cr *cycleRow) uint64 {
	rs := &d.rowStates[cr.si]
	if !(rs.disturb > 0) {
		// Untouched since the last refresh: a replayed round puts it on
		// the dirty list in reference order.
		return 0
	}
	_, e := math.Frexp(rs.disturb) // disturb in [2^(e-1), 2^e)
	cr.exp = e - 53
	if cr.exp < -1074 || cr.exp > 0 {
		// Subnormal binades are spaced differently; ulps above 1 never
		// arise from weights at most 1.  Neither is worth a bulk step.
		return 0
	}
	cr.base = uint64(math.Ldexp(rs.disturb, -cr.exp))
	qNear, okNear := quantum(1, cr.exp)
	qFar, okFar := quantum(d.model.NeighbourWeight, cr.exp)
	if (cr.near > 0 && !okNear) || (cr.far > 0 && !okFar) {
		return 0
	}
	step := float64(cr.near)*qNear + float64(cr.far)*qFar
	// Products and sums of integers stay exact below 2^53, and anything
	// at or above it rounds to at least 2^53 and is rejected here (as is
	// the NaN of a zero count times an infinite quantum).
	if !(step < binadeTop) {
		return 0
	}
	cr.step = uint64(step)
	limit := math.Ceil(math.Min(math.Ldexp(rs.minThr, -cr.exp), binadeTop))
	if !(limit > float64(cr.base)) {
		return 0
	}
	if cr.step == 0 {
		return math.MaxUint64
	}
	return (uint64(limit) - 1 - cr.base) / cr.step
}

// quantum returns how many ulps of size 2^exp adding w to a float64 of
// that binade adds: w/ulp rounded to nearest.  ok is false when w/ulp lies
// exactly halfway, where ties-to-even makes the step depend on the value.
func quantum(w float64, exp int) (q float64, ok bool) {
	r := math.Ldexp(w, -exp) // exact: exp <= 0 scales up
	q = math.Floor(r)
	switch frac := r - q; {
	case frac == 0.5:
		return 0, false
	case frac > 0.5:
		q++
	}
	return q, true
}

// applyBulk advances k rounds of perRound activations at once, using the
// binade coordinates bulkRounds recorded.
func (d *Device) applyBulk(k, perRound int) {
	for i := range d.cycleRows {
		cr := &d.cycleRows[i]
		d.rowStates[cr.si].disturb = math.Ldexp(float64(cr.base+uint64(k)*cr.step), cr.exp)
	}
	n := uint64(k) * uint64(perRound)
	d.stats.Activations += n
	d.sinceRefresh += n
}
