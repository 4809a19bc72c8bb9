package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, v, err := MeanVariance(xs)
	if err != nil || !approx(m, 5, 1e-12) || !approx(v, 32.0/7.0, 1e-12) {
		t.Errorf("MeanVariance = %v, %v, %v", m, v, err)
	}
}

func TestEmptySampleErrors(t *testing.T) {
	if _, _, err := MeanVariance(nil); err != ErrEmptySample {
		t.Error("MeanVariance(nil) should error")
	}
	if _, _, err := MeanVariance([]float64{1}); err != ErrEmptySample {
		t.Error("MeanVariance of single value should error")
	}
	if _, err := Correlation([]float64{1}, []float64{2}); err != ErrEmptySample {
		t.Error("Correlation of single pair should error")
	}
	if _, err := NewECDF(nil); err != ErrEmptySample {
		t.Error("NewECDF(nil) should error")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Correlation(xs, ys)
	if err != nil || !approx(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", r)
	}
	zs := []float64{10, 8, 6, 4, 2}
	r, _ = Correlation(xs, zs)
	if !approx(r, -1, 1e-12) {
		t.Errorf("perfect anti-correlation = %v", r)
	}
	// Constant series has zero correlation by convention.
	cs := []float64{3, 3, 3, 3, 3}
	r, err = Correlation(xs, cs)
	if err != nil || r != 0 {
		t.Errorf("constant series correlation = %v, %v", r, err)
	}
}

func TestCorrelationIndependentSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 50000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.02 {
		t.Errorf("independent correlation = %v", r)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Min() != 1 || e.Max() != 3 {
		t.Error("ECDF metadata wrong")
	}
}

func TestKSDistanceSelf(t *testing.T) {
	// KS distance of a large uniform sample against the uniform CDF
	// should be small (~1.6/sqrt(n) at 99% confidence).
	rng := rand.New(rand.NewSource(9))
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	e, _ := NewECDF(xs)
	ks := e.KSDistance(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if ks > 1.63/math.Sqrt(float64(n)) {
		t.Errorf("uniform KS distance %v too large", ks)
	}
}

// Property: mean of shifted sample shifts by the same constant;
// variance is shift-invariant.
func TestSampleShiftProperty(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		shift = math.Mod(shift, 1e6)
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + shift
		}
		mx, vx, err1 := MeanVariance(xs)
		my, vy, err2 := MeanVariance(ys)
		if err1 != nil || err2 != nil {
			return false
		}
		return approx(my, mx+shift, 1e-6) && approx(vy, vx, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
