package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles trial_ms_tail may report.  A fixed
// ladder keeps the reported percentile the same from run to run while the
// sample count moves a little with host speed.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (ascending,
// non-empty): the smallest sample with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps ladder rungs such as 99.9 from rounding up a rank
	// they land on exactly.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail applies the trial_ms_tail rule to samples: the highest ladder
// percentile that still has at least minBeyond samples above its rank.  It
// returns the percentile, its value and the number of samples beyond it.
// With fewer than 2*minBeyond samples no rung qualifies and the median is
// reported with however many samples lie beyond it.
func tail(samples []float64) (p, value float64, beyond int) {
	sorted := sortedCopy(samples)
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	p = tailLadder[0]
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			p = q
		}
	}
	return p, percentile(sorted, p), n - rank(n, p)
}

// median is the middle sample, or the mean of the two middle samples, as
// Python's statistics.median computes it.
func median(samples []float64) float64 {
	sorted := sortedCopy(samples)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), the
// definition runs of the benchmark are compared with.  It needs at least
// two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	sorted := sortedCopy(samples)
	ld := len(sorted)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles of samples as a share of
// their median: the run-to-run steadiness of one metric.
func spread(samples []float64) float64 {
	q1, q3 := quartiles(samples)
	return (q3 - q1) / median(samples)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
