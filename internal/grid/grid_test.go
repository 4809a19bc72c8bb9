package grid

import (
	"math"
	"math/rand"
	"testing"

	"obdrel/internal/stats"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// testModel returns a small model with the Table II variance split.
func testModel(t *testing.T, nx, ny int, rhoDist float64) *Model {
	t.Helper()
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, err := VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(2.2, 1, 1, nx, ny, sg, ss, se, rhoDist)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVarianceBudget(t *testing.T) {
	sg, ss, se, err := VarianceBudget(0.03, 0.5, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sg*sg+ss*ss+se*se, 0.0009, 1e-15) {
		t.Errorf("variances don't sum: %v %v %v", sg, ss, se)
	}
	if !approx(sg*sg/0.0009, 0.5, 1e-12) {
		t.Errorf("global fraction %v", sg*sg/0.0009)
	}
	if _, _, _, err := VarianceBudget(0.03, 0.5, 0.25, 0.5); err == nil {
		t.Error("fractions not summing to 1 should error")
	}
	if _, _, _, err := VarianceBudget(0, 0.5, 0.25, 0.25); err == nil {
		t.Error("zero sigma should error")
	}
	if _, _, _, err := VarianceBudget(0.03, -0.5, 0.25, 1.25); err == nil {
		t.Error("negative fraction should error")
	}
}

func TestNewModelValidates(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*Model, error)
	}{
		{"zero u0", func() (*Model, error) { return NewModel(0, 1, 1, 2, 2, 1, 1, 1, 0.5) }},
		{"zero width", func() (*Model, error) { return NewModel(2, 0, 1, 2, 2, 1, 1, 1, 0.5) }},
		{"zero grids", func() (*Model, error) { return NewModel(2, 1, 1, 0, 2, 1, 1, 1, 0.5) }},
		{"negative sigma", func() (*Model, error) { return NewModel(2, 1, 1, 2, 2, -1, 1, 1, 0.5) }},
		{"all zero sigma", func() (*Model, error) { return NewModel(2, 1, 1, 2, 2, 0, 0, 0, 0.5) }},
		{"zero rho", func() (*Model, error) { return NewModel(2, 1, 1, 2, 2, 1, 1, 1, 0) }},
		{"nx over bound", func() (*Model, error) { return NewModel(2, 1, 1, MaxResolution+1, 2, 1, 1, 1, 0.5) }},
		{"ny 2^20", func() (*Model, error) { return NewModel(2, 1, 1, 4, 1<<20, 1, 1, 1, 0.5) }},
	}
	for _, c := range cases {
		if _, err := c.f(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewModel(2, 1, 1, MaxResolution, MaxResolution, 1, 1, 1, 0.5); err != nil {
		t.Errorf("grid at the bound: %v", err)
	}
}

func TestGridIndexing(t *testing.T) {
	m := testModel(t, 4, 3, 0.5)
	if m.NumGrids() != 12 {
		t.Fatalf("NumGrids = %d", m.NumGrids())
	}
	// The center of each grid lies inside its rectangle.
	for g := 0; g < m.NumGrids(); g++ {
		x, y := m.GridCenter(g)
		x0, y0, x1, y1 := m.GridRect(g)
		if !(x0 < x && x < x1 && y0 < y && y < y1) {
			t.Errorf("grid %d center outside rect", g)
		}
	}
}

func TestCovarianceStructure(t *testing.T) {
	m := testModel(t, 5, 5, 0.5)
	c := m.Covariance()
	n := m.NumGrids()
	wantDiag := m.SigmaG*m.SigmaG + m.SigmaS*m.SigmaS
	for i := 0; i < n; i++ {
		if !approx(c.At(i, i), wantDiag, 1e-15) {
			t.Fatalf("diagonal %d = %v, want %v", i, c.At(i, i), wantDiag)
		}
	}
	if !c.IsSymmetric(0) {
		t.Fatal("covariance not symmetric")
	}
	// Correlation decays with distance: cov(0, 1) > cov(0, far corner).
	if !(c.At(0, 1) > c.At(0, n-1)) {
		t.Error("covariance does not decay with distance")
	}
	// Everything is at least the global variance.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c.At(i, j) < m.SigmaG*m.SigmaG-1e-15 {
				t.Fatalf("cov(%d,%d) below global variance", i, j)
			}
		}
	}
}

func TestPCAReconstructsCovariance(t *testing.T) {
	for _, res := range [][2]int{{2, 2}, {5, 5}, {8, 6}} {
		m := testModel(t, res[0], res[1], 0.5)
		p, err := m.ComputePCA(1)
		if err != nil {
			t.Fatal(err)
		}
		rec := p.ReconstructCovariance()
		cov := m.Covariance()
		if d := maxAbsDiff(rec, cov); d > 1e-12 {
			t.Errorf("%dx%d: reconstruction error %v", res[0], res[1], d)
		}
		if p.CapturedVariance > p.TotalVariance*(1+1e-12) {
			t.Error("captured variance exceeds total")
		}
	}
}

// TestComputePCAWorkersBitIdentical: the parallel covariance assembly
// and eigensolve return exactly the serial decomposition, so a PCA
// artifact does not depend on who built it.
func TestComputePCAWorkersBitIdentical(t *testing.T) {
	m := testModel(t, 5, 5, 0.4)
	parallel, err := m.ComputePCAWorkers(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.K != serial.K {
		t.Fatalf("K: parallel %d vs serial %d", parallel.K, serial.K)
	}
	if d := maxAbsDiff(parallel.Dense(), serial.Dense()); d != 0 {
		t.Fatalf("loadings differ by %v — parallel block eigensolves are not bit-deterministic", d)
	}
}

func TestPCATruncation(t *testing.T) {
	m := testModel(t, 6, 6, 0.5)
	full, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := m.ComputePCA(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.K >= full.K {
		t.Errorf("truncated K=%d should be < full K=%d", trunc.K, full.K)
	}
	if trunc.CapturedVariance < 0.95*trunc.TotalVariance-1e-9 {
		t.Errorf("truncation kept only %v of %v", trunc.CapturedVariance, trunc.TotalVariance)
	}
	if _, err := m.ComputePCA(0); err == nil {
		t.Error("keepFraction=0 should error")
	}
	if _, err := m.ComputePCA(1.5); err == nil {
		t.Error("keepFraction>1 should error")
	}
}

// Strong global component means the first principal component is
// nearly flat across grids — every grid loads on it almost equally.
func TestPCAGlobalComponent(t *testing.T) {
	m := testModel(t, 5, 5, 0.5)
	p, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	first := p.Dense()
	for i := 0; i < m.NumGrids(); i++ {
		l := math.Abs(first.At(i, 0))
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if (max-min)/max > 0.25 {
		t.Errorf("first PC loadings spread too wide: [%v, %v]", min, max)
	}
}

func TestSampledCovarianceMatchesModel(t *testing.T) {
	m := testModel(t, 3, 3, 0.5)
	p, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	n := m.NumGrids()
	nSamp := 60000
	samples := make([][]float64, n)
	for g := range samples {
		samples[g] = make([]float64, nSamp)
	}
	for s := 0; s < nSamp; s++ {
		shifts := p.GridShifts(p.SampleComponents(rng))
		for g := 0; g < n; g++ {
			samples[g][s] = shifts[g]
		}
	}
	cov := m.Covariance()
	// Check variances and a few covariances against the model.
	for g := 0; g < n; g++ {
		_, v, err := stats.MeanVariance(samples[g])
		if err != nil {
			t.Fatal(err)
		}
		if !approx(v, cov.At(g, g), 0.05) {
			t.Errorf("grid %d sampled variance %v vs model %v", g, v, cov.At(g, g))
		}
	}
	r01, _ := stats.Correlation(samples[0], samples[1])
	want01 := cov.At(0, 1) / cov.At(0, 0)
	if !approx(r01, want01, 0.05) {
		t.Errorf("sampled corr(0,1) = %v vs model %v", r01, want01)
	}
	r08, _ := stats.Correlation(samples[0], samples[8])
	want08 := cov.At(0, 8) / cov.At(0, 0)
	if !approx(r08, want08, 0.05) {
		t.Errorf("sampled corr(0,8) = %v vs model %v", r08, want08)
	}
}

func BenchmarkComputePCA10x10(b *testing.B) {
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, _ := VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	m, err := NewModel(2.2, 1, 1, 10, 10, sg, ss, se, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ComputePCA(1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCovarianceAmongMatchesDense: BLOD reads covariance entries
// through CovarianceAmong, so its sub-matrices must equal the dense
// matrix entry for entry, bit for bit, under both structures.
func TestCovarianceAmongMatchesDense(t *testing.T) {
	exp := testModel(t, 7, 5, 0.4)
	exp.W = 1.3
	qt := qtModel(t, 3, 0.5)
	for _, m := range []*Model{exp, qt} {
		dense := m.Covariance()
		grids := []int{0, 2, 3, 9, m.NumGrids() - 1}
		sub := m.CovarianceAmong(grids)
		for a, ga := range grids {
			for b, gb := range grids {
				if got, want := sub[a*len(grids)+b], dense.At(ga, gb); got != want {
					t.Fatalf("%v: cov(%d,%d) = %v, dense %v", m.Structure, ga, gb, got, want)
				}
			}
		}
	}
}
