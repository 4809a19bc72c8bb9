package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.BinWidth() != 1 || h.Bins() != 10 {
		t.Error("geometry wrong")
	}
	h.Add(0.5)
	h.Add(0.7)
	h.Add(9.9)
	h.Add(-5)  // clamps into bin 0
	h.Add(100) // clamps into bin 9
	if h.Counts[0] != 3 || h.Counts[9] != 2 || h.N != 5 {
		t.Errorf("counts %v N %v", h.Counts, h.N)
	}
	if h.Mid(0) != 0.5 || h.Mid(9) != 9.5 {
		t.Error("Mid wrong")
	}
}

func TestHistogramValidates(t *testing.T) {
	if _, err := NewHistogram(1, 1, 10); err == nil {
		t.Error("degenerate range should error")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestHistogramMomentsMatchSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, _ := NewNormal(5, 0.7)
	h, _ := NewHistogram(5-5*0.7, 5+5*0.7, 200)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = n.Sample(rng)
		h.Add(xs[i])
	}
	m, v, _ := MeanVariance(xs)
	if !approx(h.Mean(), m, 1e-3) {
		t.Errorf("histogram mean %v vs sample %v", h.Mean(), m)
	}
	if !approx(h.Variance(), v, 0.01) {
		t.Errorf("histogram variance %v vs sample %v", h.Variance(), v)
	}
}

func TestRSquareGaussianFit(t *testing.T) {
	// A large normal sample histogram should fit its own PDF with
	// R² > 99% — the Fig. 4 BLOD property.
	rng := rand.New(rand.NewSource(4))
	n, _ := NewNormal(2.2, 0.0147)
	h, _ := NewHistogram(2.2-4*0.0147, 2.2+4*0.0147, 50)
	for i := 0; i < 20000; i++ {
		h.Add(n.Sample(rng))
	}
	fit, _ := NewNormal(h.Mean(), math.Sqrt(h.Variance()))
	if r2 := h.RSquareAgainst(fit.PDF); r2 < 0.99 {
		t.Errorf("Gaussian R² = %v, want > 0.99", r2)
	}
	// Against a badly wrong model the fit should be poor.
	bad, _ := NewNormal(2.2+0.05, 0.0147)
	if r2 := h.RSquareAgainst(bad.PDF); r2 > 0.5 {
		t.Errorf("bad-model R² = %v, want low", r2)
	}
}

func TestHistogram2DBasics(t *testing.T) {
	h, err := NewHistogram2D(0, 1, 4, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0.1, 0.1)
	h.Add(0.9, 0.9)
	h.Add(-1, 2) // clamped to (0, 4)
	if h.N != 3 {
		t.Errorf("N = %v", h.N)
	}
	if !approx(h.Prob(0, 0), 1.0/3, 1e-12) {
		t.Errorf("Prob(0,0) = %v", h.Prob(0, 0))
	}
	mx := h.MarginalX()
	my := h.MarginalY()
	sx, sy := 0.0, 0.0
	for _, p := range mx {
		sx += p
	}
	for _, p := range my {
		sy += p
	}
	if !approx(sx, 1, 1e-12) || !approx(sy, 1, 1e-12) {
		t.Errorf("marginals sum to %v, %v", sx, sy)
	}
}

func TestHistogram2DValidates(t *testing.T) {
	if _, err := NewHistogram2D(0, 0, 4, 0, 1, 5); err == nil {
		t.Error("degenerate x range should error")
	}
	if _, err := NewHistogram2D(0, 1, 4, 0, 1, 0); err == nil {
		t.Error("zero y bins should error")
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h, _ := NewHistogram2D(-4, 4, 20, -4, 4, 20)
	for i := 0; i < 200000; i++ {
		h.Add(rng.NormFloat64(), rng.NormFloat64())
	}
	if mi := h.MutualInformation(); mi > 0.01 {
		t.Errorf("independent MI = %v, want ~0", mi)
	}
	if e := h.MaxNormalizedProductError(); e > 0.12 {
		t.Errorf("independent product error = %v", e)
	}
}

func TestMutualInformationDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h, _ := NewHistogram2D(-4, 4, 20, -4, 4, 20)
	for i := 0; i < 200000; i++ {
		x := rng.NormFloat64()
		// Strongly correlated pair.
		y := 0.95*x + 0.31*rng.NormFloat64()
		h.Add(x, y)
	}
	if mi := h.MutualInformation(); mi < 0.5 {
		t.Errorf("dependent MI = %v, want large", mi)
	}
	if e := h.MaxNormalizedProductError(); e < 0.2 {
		t.Errorf("dependent product error = %v, want large", e)
	}
}

func TestMutualInformationEmpty(t *testing.T) {
	h, _ := NewHistogram2D(0, 1, 4, 0, 1, 4)
	if mi := h.MutualInformation(); mi != 0 {
		t.Errorf("empty MI = %v", mi)
	}
	if e := h.MaxNormalizedProductError(); e != 0 {
		t.Errorf("empty product error = %v", e)
	}
}
