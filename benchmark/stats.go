package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail read from fewer samples is mostly one outlier.
const minBeyond = 10

// rank returns the 1-based nearest rank of the q-quantile over n
// samples: the ⌈q·n⌉-th smallest, clamped to [1, n].
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of xs (which it
// sorts), or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples above it. The median is always reported; tails
// only when supported.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// tailOrZero returns the q-quantile of xs when supported, else 0 —
// the report's "no data" value for per-layer percentiles.
func tailOrZero(xs []float64, q float64) float64 {
	if !supported(len(xs), q) {
		return 0
	}
	return percentile(xs, q)
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the 0.5 nearest-rank quantile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}
