// Package mathx supplies the special functions the reliability
// analysis needs beyond the standard math package: the standard
// normal PDF/CDF/quantile and the regularized incomplete gamma
// functions that back the chi-square distribution, plus the bracketed
// root finders the lifetime solves use.
//
// Everything here is implemented from scratch on top of math.Erf,
// math.Lgamma and friends; no third-party numerics are used.
package mathx

import (
	"errors"
	"math"
)

// Sqrt2Pi is sqrt(2*pi), the normalization constant of the standard
// normal density.
const Sqrt2Pi = 2.5066282746310005024157652848110452530069867406099

// NormPDF returns the standard normal probability density at x.
func NormPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / Sqrt2Pi
}

// NormCDF returns the standard normal cumulative distribution at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormQuantile returns the inverse of the standard normal CDF at
// probability p in (0, 1). It panics for p outside (0, 1) the same way
// dividing by zero would: callers are expected to validate quantile
// requests. The result is computed with the Acklam rational
// approximation and polished with one Halley step, giving close to
// full double precision.
func NormQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	x := acklam(p)
	// One Halley iteration: solve NormCDF(x) - p = 0.
	e := NormCDF(x) - p
	u := e * Sqrt2Pi * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// acklam is Peter Acklam's rational approximation to the normal
// quantile, accurate to about 1.15e-9 before polishing.
func acklam(p float64) float64 {
	var (
		a = [6]float64{
			-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00,
		}
		b = [5]float64{
			-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01,
		}
		c = [6]float64{
			-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00,
		}
		d = [4]float64{
			7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00,
		}
	)
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// ErrNoConverge reports that an iterative special-function evaluation
// failed to converge. It indicates arguments far outside the supported
// range (e.g. enormous shape parameters).
var ErrNoConverge = errors.New("mathx: iteration did not converge")

const (
	gammaEps     = 1e-15
	gammaItMax   = 500
	gammaFPMin   = 1e-300
	gammaBigStep = 1e300
)

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0.
func GammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN(), errors.New("mathx: GammaP requires a > 0 and x >= 0")
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		return p, err
	}
	q, err := gammaQContinuedFraction(a, x)
	return 1 - q, err
}

// gammaPSeries evaluates P(a,x) by its power series, converging well
// for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < gammaItMax; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return math.NaN(), ErrNoConverge
}

// gammaQContinuedFraction evaluates Q(a,x) by the Lentz continued
// fraction, converging well for x >= a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := gammaBigStep
	d := 1 / b
	h := d
	for i := 1; i <= gammaItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return math.NaN(), ErrNoConverge
}

// Bisect finds a root of f in [lo, hi] assuming f(lo) and f(hi)
// bracket it (opposite signs, or one of them is zero). It runs until
// the bracket is narrower than tol or maxIter iterations elapse, and
// returns the bracket midpoint.
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return math.NaN(), errors.New("mathx: Bisect requires a sign change on [lo, hi]")
	}
	for i := 0; i < maxIter; i++ {
		mid := lo + (hi-lo)/2
		if hi-lo < tol || mid == lo || mid == hi {
			return mid, nil
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// Evaluator is a scalar function of one variable. Brent takes it as a
// type parameter, so a small struct evaluator is called without the
// heap allocation a capturing closure would cost on every solve.
type Evaluator interface {
	Eval(x float64) float64
}

// ErrNaN reports that a root finder's function returned NaN inside
// the bracket.
var ErrNaN = errors.New("mathx: function returned NaN during root search")

// Brent finds a root of f in the bracket [a, b] whose end values
// fa = f(a) and fb = f(b) the caller has already evaluated (opposite
// signs, or one of them zero). Each step is an inverse-quadratic or
// secant step, safeguarded by a bisection step whenever the
// interpolant leaves the bracket, converges too slowly, or meets an
// infinite function value; on smooth near-linear f it needs far fewer
// evaluations than bisection.
//
// The search stops once the bracket is narrower than tol, the bracket
// can no longer be split in floating point, f is exactly zero, or
// maxIter evaluations elapse. It returns a point inside that final
// bracket (see secantFinish), so within tol of the root. A NaN from f
// is reported as ErrNaN.
func Brent[E Evaluator](f E, a, b, fa, fb, tol float64, maxIter int) (float64, error) {
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return math.NaN(), ErrNaN
	}
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return math.NaN(), errors.New("mathx: Brent requires a sign change on [a, b]")
	}
	// b is the current best estimate and c the contrapoint, so the root
	// always lies between b and c; a is the previous b.
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < maxIter; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		xm := (c - b) / 2
		if math.Abs(c-b) < tol || b+xm == b || b+xm == c {
			return secantFinish(b, c, fb, fc), nil
		}
		tol1 := 2*epsilon*math.Abs(b) + tol/2
		finite := !math.IsInf(fa, 0) && !math.IsInf(fb, 0) && !math.IsInf(fc, 0)
		if finite && math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			var p, q float64
			s := fb / fa
			if a == c {
				// Secant step.
				p = 2 * xm * s
				q = 1 - s
			} else {
				// Inverse quadratic interpolation through a, b, c.
				qq, r := fa/fc, fb/fc
				p = s * (2*xm*qq*(qq-r) - (b-a)*(r-1))
				q = (qq - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			} else {
				p = -p
			}
			// Accept the interpolant only if it stays well inside the
			// bracket and shrinks faster than the step before last.
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			// A step shorter than the tolerance would stall: move by
			// tol1 toward c (never past the midpoint) so the bracket
			// closes around the root.
			b += math.Copysign(math.Min(tol1, math.Abs(xm)), xm)
		}
		fb = f.Eval(b)
		if math.IsNaN(fb) {
			return math.NaN(), ErrNaN
		}
		if fb == 0 {
			return b, nil
		}
	}
	if (fb > 0) == (fc > 0) {
		c, fc = a, fa
	}
	if math.Abs(fc) < math.Abs(fb) {
		b, c, fb, fc = c, b, fc, fb
	}
	return secantFinish(b, c, fb, fc), nil
}

// secantFinish returns the secant root of the final bracket [b, c]
// when it lies strictly inside, else b. On a bracket this narrow f is
// linear to far below rounding, so the secant point hits the root to
// the precision f is evaluated at, at no extra evaluation.
func secantFinish(b, c, fb, fc float64) float64 {
	x := b - fb*(c-b)/(fc-fb)
	if x > math.Min(b, c) && x < math.Max(b, c) {
		return x
	}
	return b
}

// epsilon is the float64 machine epsilon, 2⁻⁵².
const epsilon = 0x1p-52
