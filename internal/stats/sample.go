package stats

import (
	"math"
	"sort"
)

// MeanVariance returns both in one pass over the data (Welford).
func MeanVariance(xs []float64) (mean, variance float64, err error) {
	if len(xs) < 2 {
		return 0, 0, ErrEmptySample
	}
	var m, m2 float64
	for i, x := range xs {
		d := x - m
		m += d / float64(i+1)
		m2 += d * (x - m)
	}
	return m, m2 / float64(len(xs)-1), nil
}

// Correlation returns the Pearson correlation coefficient of the
// paired samples xs, ys.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, ErrEmptySample
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	n := float64(len(xs))
	mx, my = mx/n, my/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ECDF is an empirical cumulative distribution function built from a
// sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmptySample
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Min and Max return the sample range.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample value.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// KSDistance returns the Kolmogorov–Smirnov statistic
// sup_x |ECDF(x) - cdf(x)| evaluated at the sample points (both
// one-sided gaps at each jump are checked).
func (e *ECDF) KSDistance(cdf func(float64) float64) float64 {
	n := float64(len(e.sorted))
	max := 0.0
	for i, x := range e.sorted {
		c := cdf(x)
		lo := math.Abs(c - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - c)
		if lo > max {
			max = lo
		}
		if hi > max {
			max = hi
		}
	}
	return max
}
