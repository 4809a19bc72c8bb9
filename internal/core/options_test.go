package core

import (
	"math"
	"testing"

	"obdrel/internal/blod"
	"obdrel/internal/grid"
)

func TestHybridCustomRanges(t *testing.T) {
	fx := newFixture(t)
	hyb, err := NewHybrid(fx.chip, HybridOptions{
		NL: 60, NB: 40, LMin: -35, LMax: -1, L0: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ls, bs, _ := hyb.tables[0].Data(); len(ls) != 60 || len(bs) != 40 {
		t.Errorf("table axes %d×%d, want 60×40", len(ls), len(bs))
	}
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	tFast, err := LifetimePPM(fast, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tHyb, err := LifetimePPM(hyb, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	// This table is deliberately coarse (ΔL ≈ 0.58 per cell, vs 0.4
	// at the default resolution) — the check is that custom ranges
	// plumb through correctly, with accuracy degrading gracefully.
	if e := math.Abs(tHyb-tFast) / tFast * 100; e > 8 {
		t.Errorf("custom-range hybrid %.2f%% off st_fast", e)
	}
}

func TestHybridBelowTableRangeIsZero(t *testing.T) {
	fx := newFixture(t)
	hyb, err := NewHybrid(fx.chip, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aMin, _ := fx.chip.AlphaRange()
	// ln(t/α) far below LMin = -40.
	p, err := hyb.FailureProb(aMin * 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("failure probability below table range = %v, want 0", p)
	}
}

func TestHybridInvalidOptions(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewHybrid(fx.chip, HybridOptions{LMin: 5, LMax: -5}); err == nil {
		t.Error("inverted L range should error")
	}
	if _, err := NewHybrid(fx.chip, HybridOptions{BMin: -2, BMax: -1}); err == nil {
		t.Error("negative b range should error")
	}
}

func TestStMCBinsOption(t *testing.T) {
	fx := newFixture(t)
	coarse, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 8000, Bins: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 8000, Bins: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := LifetimePPM(coarse, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := LifetimePPM(fine, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(tc-tf) / tf * 100; e > 5 {
		t.Errorf("histogram-resolution sensitivity %.2f%%", e)
	}
}

func TestStMCDefaults(t *testing.T) {
	fx := newFixture(t)
	e, err := NewStMC(fx.chip, fx.pca, StMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != 5000 || e.Bins != 40 {
		t.Errorf("defaults: samples %d bins %d", e.Samples, e.Bins)
	}
	if e.Name() != "st_MC" {
		t.Errorf("Name = %q", e.Name())
	}
	prod, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 100, Product: true})
	if err != nil {
		t.Fatal(err)
	}
	if prod.Name() != "st_MC_product" {
		t.Errorf("product Name = %q", prod.Name())
	}
}

func TestMonteCarloDefaults(t *testing.T) {
	fx := newFixture(t)
	e, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != 1000 || e.WBins != 512 {
		t.Errorf("defaults: samples %d bins %d", e.Samples, e.WBins)
	}
	if e.Name() != "MC" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestMonteCarloWBinsInsensitive(t *testing.T) {
	// The w-histogram binning must not bias the result: 128 vs 1024
	// bins agree to well under the sampling noise.
	fx := newFixture(t)
	coarse, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 500, WBins: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 500, WBins: 1024, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, aMax := fx.chip.AlphaRange()
	probe := aMax * 1e-7
	pc, err := coarse.FailureProb(probe)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fine.FailureProb(probe)
	if err != nil {
		t.Fatal(err)
	}
	if pf == 0 || math.Abs(pc-pf)/pf > 0.02 {
		t.Errorf("binning sensitivity: %v vs %v", pc, pf)
	}
}

func TestPCATruncationAccuracy(t *testing.T) {
	// DESIGN.md ablation: truncating principal components to 99% of
	// variance must not move the st_fast lifetime materially, because
	// the BLOD characterization works off the covariance (exact) and
	// only the sampled engines consume the loadings.
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, err := grid.VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := grid.NewModel(2.2, 1, 1, 6, 6, sg, ss, se, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := m.ComputePCA(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.K >= full.K {
		t.Fatalf("truncation kept all %d components", trunc.K)
	}
	fx := newFixture(t)
	char, err := blod.Characterize(fx.chip.Design, m)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := NewChip(fx.chip.Design, m, char, fx.chip.Params)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewStFast(chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LifetimePPM(fast, chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	// st_MC under the truncated loadings vs st_fast (exact moments):
	smc, err := NewStMC(chip, trunc, StMCOptions{Samples: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	life, err := LifetimePPM(smc, chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(life-ref) / ref * 100; e > 5 {
		t.Errorf("99%%-variance truncation shifts lifetime by %.2f%%", e)
	}
}
