// Package stats provides the probability distributions and empirical
// statistics the OBD reliability analysis relies on: normal, chi-
// square, Weibull and exponential distributions; histograms (1-D and
// 2-D); goodness-of-fit and information measures.
package stats

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/mathx"
)

// Dist is a univariate continuous distribution.
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile for p in (0, 1).
	Quantile(p float64) float64
	// Mean returns the expectation.
	Mean() float64
	// Variance returns the variance.
	Variance() float64
}

// Normal is the N(Mu, Sigma²) distribution.
type Normal struct {
	Mu, Sigma float64
}

// NewNormal returns a normal distribution, validating sigma > 0.
func NewNormal(mu, sigma float64) (Normal, error) {
	if !(sigma > 0) || math.IsNaN(mu) {
		return Normal{}, fmt.Errorf("stats: invalid normal parameters mu=%v sigma=%v", mu, sigma)
	}
	return Normal{Mu: mu, Sigma: sigma}, nil
}

// PDF implements Dist.
func (n Normal) PDF(x float64) float64 {
	return mathx.NormPDF((x-n.Mu)/n.Sigma) / n.Sigma
}

// CDF implements Dist.
func (n Normal) CDF(x float64) float64 {
	return mathx.NormCDF((x - n.Mu) / n.Sigma)
}

// Quantile implements Dist.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*mathx.NormQuantile(p)
}

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// Variance implements Dist.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// ChiSquared is the chi-square distribution with K degrees of freedom.
// K may be fractional (as produced by Satterthwaite-style moment
// matching of quadratic forms).
type ChiSquared struct {
	K float64
}

// NewChiSquared validates k > 0.
func NewChiSquared(k float64) (ChiSquared, error) {
	if !(k > 0) {
		return ChiSquared{}, fmt.Errorf("stats: invalid chi-square dof %v", k)
	}
	return ChiSquared{K: k}, nil
}

// PDF implements Dist.
func (c ChiSquared) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case c.K < 2:
			return math.Inf(1)
		case c.K == 2:
			return 0.5
		}
		return 0
	}
	half := c.K / 2
	lg, _ := math.Lgamma(half)
	return math.Exp((half-1)*math.Log(x) - x/2 - half*math.Ln2 - lg)
}

// CDF implements Dist.
func (c ChiSquared) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	p, err := mathx.GammaP(c.K/2, x/2)
	if err != nil {
		return math.NaN()
	}
	return p
}

// Quantile implements Dist. It inverts the CDF by bisection on a
// bracket grown from the mean; accuracy is ~1e-12 relative.
func (c ChiSquared) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	hi := c.K + 10
	for c.CDF(hi) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	q, err := mathx.Bisect(func(x float64) float64 { return c.CDF(x) - p }, 0, hi, 1e-12*(1+hi), 400)
	if err != nil {
		return math.NaN()
	}
	return q
}

// Mean implements Dist.
func (c ChiSquared) Mean() float64 { return c.K }

// Variance implements Dist.
func (c ChiSquared) Variance() float64 { return 2 * c.K }

// ShiftedScaledChi2 is the distribution of c0 + a·X where
// X ~ ChiSquared(k). It models the BLOD sample variance v_j ≈
// λ_r² + â·χ²_b̂ per the paper's Eq. (29).
type ShiftedScaledChi2 struct {
	C0, A float64
	Chi2  ChiSquared
}

// NewShiftedScaledChi2 validates a > 0, k > 0.
func NewShiftedScaledChi2(c0, a, k float64) (ShiftedScaledChi2, error) {
	if !(a > 0) {
		return ShiftedScaledChi2{}, fmt.Errorf("stats: invalid chi-square scale %v", a)
	}
	chi, err := NewChiSquared(k)
	if err != nil {
		return ShiftedScaledChi2{}, err
	}
	return ShiftedScaledChi2{C0: c0, A: a, Chi2: chi}, nil
}

// PDF implements Dist.
func (s ShiftedScaledChi2) PDF(x float64) float64 {
	return s.Chi2.PDF((x-s.C0)/s.A) / s.A
}

// CDF implements Dist.
func (s ShiftedScaledChi2) CDF(x float64) float64 {
	return s.Chi2.CDF((x - s.C0) / s.A)
}

// Quantile implements Dist.
func (s ShiftedScaledChi2) Quantile(p float64) float64 {
	return s.C0 + s.A*s.Chi2.Quantile(p)
}

// Mean implements Dist.
func (s ShiftedScaledChi2) Mean() float64 { return s.C0 + s.A*s.Chi2.K }

// Variance implements Dist.
func (s ShiftedScaledChi2) Variance() float64 { return s.A * s.A * 2 * s.Chi2.K }

// Degenerate is the point mass at V. It models the BLOD variance of a
// block fully contained in a single correlation grid, where the
// spatial quadratic form vanishes and v_j = λ_r² deterministically.
type Degenerate struct {
	V float64
}

// PDF implements Dist; it is zero everywhere except the atom, where
// the density is not finite — callers integrate Degenerate
// analytically instead of via its PDF.
func (d Degenerate) PDF(x float64) float64 {
	if x == d.V {
		return math.Inf(1)
	}
	return 0
}

// CDF implements Dist.
func (d Degenerate) CDF(x float64) float64 {
	if x < d.V {
		return 0
	}
	return 1
}

// Quantile implements Dist.
func (d Degenerate) Quantile(p float64) float64 { return d.V }

// Mean implements Dist.
func (d Degenerate) Mean() float64 { return d.V }

// Variance implements Dist.
func (d Degenerate) Variance() float64 { return 0 }

// Weibull is the two-parameter Weibull distribution with
// CDF F(t) = 1 - exp(-(t/Scale)^Shape), t >= 0. Scale is the
// characteristic life (63.2% point); Shape is the slope β.
type Weibull struct {
	Scale, Shape float64
}

// NewWeibull validates scale > 0, shape > 0.
func NewWeibull(scale, shape float64) (Weibull, error) {
	if !(scale > 0) || !(shape > 0) {
		return Weibull{}, fmt.Errorf("stats: invalid Weibull parameters scale=%v shape=%v", scale, shape)
	}
	return Weibull{Scale: scale, Shape: shape}, nil
}

// PDF implements Dist.
func (w Weibull) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 {
		switch {
		case w.Shape < 1:
			return math.Inf(1)
		case w.Shape == 1:
			return 1 / w.Scale
		}
		return 0
	}
	z := t / w.Scale
	return w.Shape / w.Scale * math.Pow(z, w.Shape-1) * math.Exp(-math.Pow(z, w.Shape))
}

// CDF implements Dist.
func (w Weibull) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(t/w.Scale, w.Shape))
}

// Quantile implements Dist.
func (w Weibull) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return w.Scale * math.Pow(-math.Log1p(-p), 1/w.Shape)
}

// Mean implements Dist.
func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// Variance implements Dist.
func (w Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// ErrEmptySample reports statistics requested on an empty sample.
var ErrEmptySample = errors.New("stats: empty sample")
