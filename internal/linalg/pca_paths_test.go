package linalg_test

import (
	"math"
	"testing"

	"obdrel/internal/grid"
	"obdrel/internal/linalg"
)

// TestPCABitIdenticalAcrossPaths builds the paper's 25×25 PCA on the
// Go loops and on the AVX2 kernels and requires the same bits in every
// eigenvalue, loading and variance: on a square die, where the five
// swap-path solves run, and on a 2×1 die, which takes the four-block
// solve.
func TestPCABitIdenticalAcrossPaths(t *testing.T) {
	if !linalg.HaveAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go loops run")
	}
	sg, ss, se, _ := grid.VarianceBudget(2.2*0.04/3, 0.5, 0.25, 0.25)
	for _, c := range []struct {
		name string
		w    float64
	}{{"square", 1}, {"die2x1", 2}} {
		m, err := grid.NewModel(2.2, c.w, 1, 25, 25, sg, ss, se, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		pca := func(avx2 bool) *grid.PCA {
			linalg.SetAVX2(t, avx2)
			p, err := m.ComputePCAWorkers(1, 0)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return p
		}
		want, got := pca(false), pca(true)
		same := func(what string, x, y []float64) {
			t.Helper()
			if len(x) != len(y) {
				t.Fatalf("%s: %s has %d values on AVX2, %d on the Go loops", c.name, what, len(y), len(x))
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					t.Fatalf("%s: %s[%d] = %v on AVX2, %v on the Go loops", c.name, what, i, y[i], x[i])
				}
			}
		}
		same("Eigenvalues", want.Eigenvalues, got.Eigenvalues)
		same("variances", []float64{want.TotalVariance, want.CapturedVariance}, []float64{got.TotalVariance, got.CapturedVariance})
		if len(got.Blocks) != len(want.Blocks) || got.K != want.K {
			t.Fatalf("%s: %d blocks, K=%d on AVX2; %d blocks, K=%d on the Go loops", c.name, len(got.Blocks), got.K, len(want.Blocks), want.K)
		}
		for b := range want.Blocks {
			same("block eigenvalues", want.Blocks[b].Eigenvalues, got.Blocks[b].Eigenvalues)
			same("block loadings", want.Blocks[b].Loadings, got.Blocks[b].Loadings)
		}
	}
}
