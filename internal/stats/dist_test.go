package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkDist verifies the generic distribution axioms: CDF is monotone
// from ~0 to ~1, quantile inverts the CDF, PDF integrates to ~1 and
// numerically differentiates the CDF.
func checkDist(t *testing.T, name string, d Dist, lo, hi float64) {
	t.Helper()
	prev := d.CDF(lo)
	if prev < -1e-12 || prev > 1+1e-12 {
		t.Errorf("%s: CDF(%v) = %v out of [0,1]", name, lo, prev)
	}
	n := 400
	step := (hi - lo) / float64(n)
	integral := 0.0
	for i := 1; i <= n; i++ {
		x := lo + float64(i)*step
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("%s: CDF not monotone at %v", name, x)
		}
		prev = c
		integral += d.PDF(x-step/2) * step
	}
	// PDF must be consistent with the CDF over the covered range.
	if want := d.CDF(hi) - d.CDF(lo); !approx(integral, want, 0.02) {
		t.Errorf("%s: PDF integrates to %v over [%v,%v], CDF difference is %v",
			name, integral, lo, hi, want)
	}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		q := d.Quantile(p)
		if got := d.CDF(q); !approx(got, p, 1e-6) {
			t.Errorf("%s: CDF(Quantile(%v)) = %v", name, p, got)
		}
	}
}

func TestNormalDist(t *testing.T) {
	n, err := NewNormal(2.2, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	checkDist(t, "Normal", n, 2.2-6*0.03, 2.2+6*0.03)
	if n.Mean() != 2.2 || !approx(n.Variance(), 0.0009, 1e-12) {
		t.Error("Normal moments wrong")
	}
}

func TestNewNormalValidates(t *testing.T) {
	if _, err := NewNormal(0, 0); err == nil {
		t.Error("sigma=0 should error")
	}
	if _, err := NewNormal(0, -1); err == nil {
		t.Error("sigma<0 should error")
	}
	if _, err := NewNormal(math.NaN(), 1); err == nil {
		t.Error("NaN mu should error")
	}
}

func TestChiSquaredDist(t *testing.T) {
	for _, k := range []float64{1, 2, 3.7, 10, 50} {
		c, err := NewChiSquared(k)
		if err != nil {
			t.Fatal(err)
		}
		lo := 1e-9
		if k < 2 {
			// The density is singular at 0 for k < 2; start the
			// PDF/CDF consistency sweep past the singularity.
			lo = 0.05
		}
		hi := k + 12*math.Sqrt(2*k)
		checkDist(t, "Chi2", c, lo, hi)
		if !approx(c.Mean(), k, 1e-12) || !approx(c.Variance(), 2*k, 1e-12) {
			t.Errorf("Chi2(%v) moments wrong", k)
		}
	}
}

func TestChiSquaredKnownValues(t *testing.T) {
	// Chi2(2) is Exponential(1/2): CDF(x) = 1 - exp(-x/2).
	c, _ := NewChiSquared(2)
	for _, x := range []float64{0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x/2)
		if got := c.CDF(x); !approx(got, want, 1e-10) {
			t.Errorf("Chi2(2).CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if c.CDF(-1) != 0 {
		t.Error("Chi2 CDF should be 0 for negative x")
	}
	if c.PDF(-1) != 0 {
		t.Error("Chi2 PDF should be 0 for negative x")
	}
}

func TestChiSquaredSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []float64{0.8, 2, 7.3} {
		c, _ := NewChiSquared(k)
		n := 200000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = c.Sample(rng)
		}
		m, v, err := MeanVariance(xs)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(m, k, 0.03) {
			t.Errorf("Chi2(%v) sample mean %v", k, m)
		}
		if !approx(v, 2*k, 0.06) {
			t.Errorf("Chi2(%v) sample variance %v want %v", k, v, 2*k)
		}
	}
}

func TestShiftedScaledChi2(t *testing.T) {
	s, err := NewShiftedScaledChi2(0.5, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkDist(t, "ShiftedScaledChi2", s, 0.5+1e-9, 0.5+0.1*(4+12*math.Sqrt(8)))
	if !approx(s.Mean(), 0.5+0.4, 1e-12) {
		t.Errorf("mean %v", s.Mean())
	}
	if !approx(s.Variance(), 0.01*8, 1e-12) {
		t.Errorf("variance %v", s.Variance())
	}
	if _, err := NewShiftedScaledChi2(0, -1, 4); err == nil {
		t.Error("negative scale should error")
	}
	if _, err := NewShiftedScaledChi2(0, 1, 0); err == nil {
		t.Error("zero dof should error")
	}
}

func TestDegenerate(t *testing.T) {
	d := Degenerate{V: 3}
	if d.CDF(2.999) != 0 || d.CDF(3) != 1 || d.CDF(4) != 1 {
		t.Error("Degenerate CDF wrong")
	}
	if d.Quantile(0.5) != 3 || d.Mean() != 3 || d.Variance() != 0 {
		t.Error("Degenerate moments wrong")
	}
}

func TestWeibullDist(t *testing.T) {
	w, err := NewWeibull(100, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	checkDist(t, "Weibull", w, 1e-9, 100*math.Pow(-math.Log(1e-9), 1/1.32)*1.2)
	// Characteristic life: F(scale) = 1 - 1/e.
	if got := w.CDF(100); !approx(got, 1-1/math.E, 1e-12) {
		t.Errorf("CDF at scale = %v", got)
	}
	if _, err := NewWeibull(-1, 1); err == nil {
		t.Error("negative scale should error")
	}
	if _, err := NewWeibull(1, 0); err == nil {
		t.Error("zero shape should error")
	}
}

func TestWeibullSampleAgainstCDFProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w, _ := NewWeibull(5, 2)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = w.Sample(rng)
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	if ks := e.KSDistance(w.CDF); ks > 0.01 {
		t.Errorf("Weibull sample KS distance %v", ks)
	}
}

func TestQuantileCDFRoundTripProperty(t *testing.T) {
	f := func(rmu, rsig, rp float64) bool {
		mu := math.Mod(rmu, 100)
		sigma := 0.01 + math.Abs(math.Mod(rsig, 10))
		p := 0.001 + 0.998*math.Abs(math.Mod(rp, 1))
		n, err := NewNormal(mu, sigma)
		if err != nil {
			return false
		}
		return approx(n.CDF(n.Quantile(p)), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The samplers below draw the variates the moment, fit and histogram
// tests check against each distribution's closed forms.

// Sample draws one variate using rng.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Sample draws one variate with the Marsaglia-Tsang gamma sampler at
// shape K/2, scale 2.
func (c ChiSquared) Sample(rng *rand.Rand) float64 {
	return 2 * sampleGamma(c.K/2, rng)
}

// sampleGamma draws from Gamma(shape, 1) via Marsaglia & Tsang (2000),
// with the standard boost for shape < 1.
func sampleGamma(shape float64, rng *rand.Rand) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(shape+1, rng) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	cc := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + cc*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Sample draws one variate by inversion.
func (w Weibull) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return w.Scale * math.Pow(-math.Log(u), 1/w.Shape)
}
