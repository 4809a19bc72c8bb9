// Benchmarks regenerating the runtime side of every table and figure
// in the paper's evaluation (the numeric/accuracy side is produced by
// cmd/tables and cmd/figures):
//
//	BenchmarkTable3_*      — per-method analysis runtime on C1–C6
//	BenchmarkLifetimePPM   — one st_fast lifetime solve, C1–C6 at 1 and 100 ppm
//	BenchmarkTable4_*      — st_fast under the correlation-distance sweep
//	BenchmarkTable5_*      — analysis cost vs correlation-grid resolution
//	BenchmarkFig1_*        — the HotSpot-like thermal substrate (operator build + coupled solve)
//	BenchmarkFig3_*        — the SBD→HBD leakage-trace simulator
//	BenchmarkFig4_*        — BLOD histogram construction + Gaussian fit
//	BenchmarkFig6_7_*      — joint-PDF construction and mutual information
//	BenchmarkFig8_*        — χ² approximation of the variance quadratic form
//	BenchmarkFig10_*       — failure-rate curves and chip-lifetime sampling
//	BenchmarkAblation_*    — l0 resolution, hybrid table resolution, and
//	                         Taylor-vs-product ablations called out in DESIGN.md
//
// MC benchmarks use reduced sample counts (the cost is strictly linear
// in samples × devices); EXPERIMENTS.md records the scaling to the
// paper's 1000-sample setup.
package obdrel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"obdrel"
	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/power"
	"obdrel/internal/stats"
	"obdrel/internal/thermal"
)

// benchmark fixtures are built once and shared; engines inside an
// analyzer are cached after first use, so steady-state query cost is
// what the loop measures.
var (
	benchMu        sync.Mutex
	benchAnalyzers = map[string]*obdrel.Analyzer{}
)

func benchAnalyzer(b *testing.B, d *obdrel.Design, gridN, mcSamples int) *obdrel.Analyzer {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := d.Name
	if an, ok := benchAnalyzers[key]; ok {
		return an
	}
	cfg := obdrel.DefaultConfig()
	cfg.GridNx, cfg.GridNy = gridN, gridN
	cfg.MCSamples = mcSamples
	an, err := obdrel.NewAnalyzer(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchAnalyzers[key] = an
	return an
}

// warm forces engine construction outside the timed loop.
func warm(b *testing.B, an *obdrel.Analyzer, m obdrel.Method) {
	b.Helper()
	if _, err := an.LifetimePPM(10, m); err != nil {
		b.Fatal(err)
	}
}

// --- Table III: per-method analysis runtime, C1–C6 ------------------

func benchLifetime(b *testing.B, an *obdrel.Analyzer, m obdrel.Method) {
	b.Helper()
	warm(b, an, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.LifetimePPM(10, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_StFast(b *testing.B) {
	for _, d := range obdrel.Benchmarks() {
		b.Run(d.Name, func(b *testing.B) {
			benchLifetime(b, benchAnalyzer(b, d, 16, 100), obdrel.MethodStFast)
		})
	}
}

// BenchmarkLifetimePPM times one st_fast lifetime solve on C1–C6 at
// 1 and 100 ppm: the Brent search whose first evaluation, at α_max,
// sits in the saturated corner of every block integral.
func BenchmarkLifetimePPM(b *testing.B) {
	for _, d := range obdrel.Benchmarks() {
		for _, ppm := range []float64{1, 100} {
			b.Run(fmt.Sprintf("%s/%gppm", d.Name, ppm), func(b *testing.B) {
				an := benchAnalyzer(b, d, 16, 100)
				warm(b, an, obdrel.MethodStFast)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := an.LifetimePPM(ppm, obdrel.MethodStFast); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTable3_StMC(b *testing.B) {
	for _, d := range []*obdrel.Design{obdrel.C1(), obdrel.C3(), obdrel.C6()} {
		b.Run(d.Name, func(b *testing.B) {
			benchLifetime(b, benchAnalyzer(b, d, 16, 100), obdrel.MethodStMC)
		})
	}
}

func BenchmarkTable3_Hybrid(b *testing.B) {
	for _, d := range obdrel.Benchmarks() {
		b.Run(d.Name, func(b *testing.B) {
			benchLifetime(b, benchAnalyzer(b, d, 16, 100), obdrel.MethodHybrid)
		})
	}
}

func BenchmarkTable3_Guard(b *testing.B) {
	for _, d := range obdrel.Benchmarks() {
		b.Run(d.Name, func(b *testing.B) {
			benchLifetime(b, benchAnalyzer(b, d, 16, 100), obdrel.MethodGuard)
		})
	}
}

// BenchmarkTable3_MC times the full device-level reference (sampling
// included, 100 sample chips — multiply by 10 for the paper's 1000).
func BenchmarkTable3_MC(b *testing.B) {
	for _, d := range []*obdrel.Design{obdrel.C1(), obdrel.C3()} {
		b.Run(d.Name, func(b *testing.B) {
			cfg := obdrel.DefaultConfig()
			cfg.GridNx, cfg.GridNy = 16, 16
			cfg.MCSamples = 100
			for i := 0; i < b.N; i++ {
				an, err := obdrel.NewAnalyzer(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.LifetimePPM(10, obdrel.MethodMC); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table IV: correlation-distance sweep ----------------------------

func BenchmarkTable4_RhoDist(b *testing.B) {
	for _, rho := range []float64{0.25, 0.5, 0.75} {
		b.Run(floatName(rho), func(b *testing.B) {
			cfg := obdrel.DefaultConfig()
			cfg.GridNx, cfg.GridNy = 16, 16
			cfg.RhoDist = rho
			an, err := obdrel.NewAnalyzer(obdrel.C2(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchLifetime(b, an, obdrel.MethodStFast)
		})
	}
}

func floatName(f float64) string {
	switch f {
	case 0.25:
		return "rho0.25"
	case 0.5:
		return "rho0.50"
	}
	return "rho0.75"
}

// --- Table V: grid-resolution sweep (full pipeline including PCA) ----

func BenchmarkTable5_GridResolution(b *testing.B) {
	for _, g := range []int{10, 20, 25} {
		b.Run(map[int]string{10: "grid10x10", 20: "grid20x20", 25: "grid25x25"}[g], func(b *testing.B) {
			cfg := obdrel.DefaultConfig()
			cfg.GridNx, cfg.GridNy = g, g
			for i := 0; i < b.N; i++ {
				an, err := obdrel.NewAnalyzer(obdrel.C2(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.LifetimePPM(10, obdrel.MethodStFast); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 1: the thermal substrate -----------------------------------

func BenchmarkFig1_ThermalSolve(b *testing.B) {
	d := floorplan.C6()
	pm := power.Default()
	s := thermal.DefaultSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := s.NewOperator(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		_, err = s.SolveCoupledCtx(context.Background(), op, d, func(temps []float64) ([]float64, error) {
			return pm.DesignPowers(d, 1.2, temps)
		}, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: leakage-trace simulation ---------------------------------

func BenchmarkFig3_LeakageTrace(b *testing.B) {
	tech := obd.DefaultTech()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := tech.SimulateLeakageTrace(obd.DefaultLeakageConfig(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 4, 6–8: the BLOD machinery ---------------------------------

// fig4Fixture builds the two-block (5K/20K device) characterization
// shared by the Fig. 4–8 benchmarks.
func fig4Fixture(b *testing.B) (*grid.Model, *grid.PCA, *blod.Characterization) {
	b.Helper()
	tech := obd.DefaultTech()
	sigmaTot := tech.U0 * 0.04 / 3
	sg, ss, se, err := grid.VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	m, err := grid.NewModel(tech.U0, 1, 1, 10, 10, sg, ss, se, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	pca, err := m.ComputePCA(1)
	if err != nil {
		b.Fatal(err)
	}
	d := &floorplan.Design{
		Name: "fig4", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "b5k", X: 0, Y: 0, W: 0.5, H: 0.6, Devices: 5000, Activity: 0.5},
			{Name: "b20k", X: 0.5, Y: 0, W: 0.5, H: 1, Devices: 20000, Activity: 0.5},
		},
	}
	char, err := blod.Characterize(d, m)
	if err != nil {
		b.Fatal(err)
	}
	return m, pca, char
}

func BenchmarkFig4_BLODHistogram(b *testing.B) {
	m, pca, char := fig4Fixture(b)
	bc := &char.Blocks[1]
	grids, counts := bc.DeviceAllocation()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shifts := pca.GridShifts(pca.SampleComponents(rng))
		h, err := stats.NewHistogram(m.U0-5*m.SigmaE, m.U0+5*m.SigmaE, 60)
		if err != nil {
			b.Fatal(err)
		}
		for gi, g := range grids {
			base := m.U0 + shifts[g]
			for k := 0; k < counts[gi]; k++ {
				h.Add(base + m.SigmaE*rng.NormFloat64())
			}
		}
		fit, err := stats.NewNormal(h.Mean(), math.Sqrt(h.Variance()))
		if err != nil {
			b.Fatal(err)
		}
		if r2 := h.RSquareAgainst(fit.PDF); math.IsNaN(r2) {
			b.Fatal("NaN R²")
		}
	}
}

func BenchmarkFig6_7_JointPDFAndMutualInfo(b *testing.B) {
	_, pca, char := fig4Fixture(b)
	bc := &char.Blocks[1]
	ud, err := bc.UDist()
	if err != nil {
		b.Fatal(err)
	}
	vd, err := bc.VDist()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := stats.NewHistogram2D(
			ud.Quantile(1e-3), ud.Quantile(1-1e-3), 30,
			vd.Quantile(1e-3), vd.Quantile(1-1e-3), 30)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 50000; s++ {
			u, v := bc.UVFromShifts(pca.GridShifts(pca.SampleComponents(rng)))
			h.Add(u, v)
		}
		_ = h.MutualInformation()
		_ = h.MaxNormalizedProductError()
	}
}

func BenchmarkFig8_Chi2Approx(b *testing.B) {
	_, _, char := fig4Fixture(b)
	bc := &char.Blocks[1]
	vd, err := bc.VDist()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k <= 120; k++ {
			v := bc.V0 + bc.TrB*3*float64(k)/120
			if c := vd.CDF(v); c < 0 || c > 1 {
				b.Fatal("CDF out of range")
			}
		}
	}
}

// --- Fig. 10: failure-rate curves and lifetime sampling ---------------

func BenchmarkFig10_Curves(b *testing.B) {
	an := benchAnalyzer(b, obdrel.C3(), 16, 100)
	warm(b, an, obdrel.MethodStFast)
	ref, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := an.ReliabilityCurve(ref/30, ref*1000, 60, obdrel.MethodStFast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_SampleFailureTimes(b *testing.B) {
	an := benchAnalyzer(b, obdrel.C3(), 16, 100)
	warm(b, an, obdrel.MethodMC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.SampleFailureTimes(100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------

// BenchmarkAblation_TableRes sweeps the hybrid lookup-table resolution
// (paper: 100×100), timing the one-time build.
func BenchmarkAblation_TableRes(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		b.Run(map[int]string{25: "25x25", 50: "50x50", 100: "100x100"}[n], func(b *testing.B) {
			cfg := obdrel.DefaultConfig()
			cfg.GridNx, cfg.GridNy = 16, 16
			cfg.HybridNL, cfg.HybridNB = n, n
			cfg.L0 = 16
			for i := 0; i < b.N; i++ {
				an, err := obdrel.NewAnalyzer(obdrel.C2(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.FailureProb(1e5, obdrel.MethodHybrid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_TaylorProduct compares the paper's first-order
// union-bound form (Eq. 16) against the exact sample-average product,
// both over the same component samples (core.StMC with and without
// Product mode).
func BenchmarkAblation_TaylorProduct(b *testing.B) {
	m, pca, char := fig4Fixture(b)
	tech := obd.DefaultTech()
	params := make([]obd.Params, len(char.Blocks))
	for i, tc := range []float64{90, 70} {
		p, err := tech.Characterize(tc, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		params[i] = p
	}
	d := &floorplan.Design{
		Name: "fig4", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "b5k", X: 0, Y: 0, W: 0.5, H: 0.6, Devices: 5000, Activity: 0.5},
			{Name: "b20k", X: 0.5, Y: 0, W: 0.5, H: 1, Devices: 20000, Activity: 0.5},
		},
	}
	chip, err := core.NewChip(d, m, char, params)
	if err != nil {
		b.Fatal(err)
	}
	for _, product := range []bool{false, true} {
		name := "taylor_sum"
		if product {
			name = "exact_product"
		}
		b.Run(name, func(b *testing.B) {
			e, err := core.NewStMC(chip, pca, core.StMCOptions{Samples: 5000, Product: product})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.LifetimePPM(e, chip, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
