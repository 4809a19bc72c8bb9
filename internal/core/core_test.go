package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"obdrel/internal/blod"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// fixture bundles a small but fully featured chip: four blocks across
// a 5×5 correlation grid with distinct block temperatures.
type fixture struct {
	chip *Chip
	pca  *grid.PCA
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, err := grid.VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := grid.NewModel(2.2, 1, 1, 5, 5, sg, ss, se, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pca, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	d := &floorplan.Design{
		Name: "coretest", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "exec", X: 0, Y: 0, W: 0.5, H: 0.5, Devices: 6000, Class: floorplan.ClassALU, Activity: 0.9},
			{Name: "cache", X: 0.5, Y: 0, W: 0.5, H: 0.5, Devices: 8000, Class: floorplan.ClassCache, Activity: 0.25},
			{Name: "fpu", X: 0, Y: 0.5, W: 0.5, H: 0.5, Devices: 3000, Class: floorplan.ClassFPU, Activity: 0.6},
			{Name: "ctl", X: 0.5, Y: 0.5, W: 0.5, H: 0.5, Devices: 3000, Class: floorplan.ClassControl, Activity: 0.4},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	char, err := blod.Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	tech := obd.DefaultTech()
	temps := []float64{92, 68, 80, 72}
	params := make([]obd.Params, len(temps))
	for i, tc := range temps {
		params[i], err = tech.Characterize(tc, 1.2)
		if err != nil {
			t.Fatal(err)
		}
	}
	chip, err := NewChip(d, m, char, params)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{chip: chip, pca: pca}
}

func TestNewChipValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewChip(nil, fx.chip.Model, fx.chip.Char, fx.chip.Params); err == nil {
		t.Error("nil design should error")
	}
	if _, err := NewChip(fx.chip.Design, fx.chip.Model, fx.chip.Char, fx.chip.Params[:2]); err == nil {
		t.Error("short params should error")
	}
	bad := append([]obd.Params(nil), fx.chip.Params...)
	bad[0].Alpha = -1
	if _, err := NewChip(fx.chip.Design, fx.chip.Model, fx.chip.Char, bad); err == nil {
		t.Error("invalid params should error")
	}
}

func TestChipHelpers(t *testing.T) {
	fx := newFixture(t)
	c := fx.chip
	if got := c.NumBlocks(); got != 4 {
		t.Errorf("NumBlocks = %d", got)
	}
	if got := c.TotalArea(); got != 20000 {
		t.Errorf("TotalArea = %v", got)
	}
	w := c.WorstParams()
	for _, p := range c.Params {
		if p.Alpha < w.Alpha {
			t.Error("WorstParams not the minimum α")
		}
	}
	mn, mx := c.AlphaRange()
	if !(mn <= mx) || mn != w.Alpha {
		t.Errorf("AlphaRange = %v, %v", mn, mx)
	}
	uni, err := c.WithUniformParams(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range uni.Params {
		if p != w {
			t.Error("WithUniformParams not uniform")
		}
	}
}

// engineAxioms checks P(0)=0, monotonicity, and range for any engine.
func engineAxioms(t *testing.T, e Engine, tMax float64) {
	t.Helper()
	p0, err := e.FailureProb(0)
	if err != nil || p0 != 0 {
		t.Errorf("%s: P(0) = %v, %v", e.Name(), p0, err)
	}
	prev := 0.0
	for tt := tMax * 1e-12; tt <= tMax; tt *= 10 {
		p, err := e.FailureProb(tt)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if p < 0 || p > 1 {
			t.Fatalf("%s: P(%v) = %v outside [0,1]", e.Name(), tt, p)
		}
		if p < prev-1e-12 {
			t.Fatalf("%s: P not monotone at %v: %v < %v", e.Name(), tt, p, prev)
		}
		prev = p
	}
}

func TestStFastAxioms(t *testing.T) {
	fx := newFixture(t)
	e, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, aMax := fx.chip.AlphaRange()
	engineAxioms(t, e, aMax)
}

func TestStFastAgainstMonteCarlo(t *testing.T) {
	// The headline claim (Table III): st_fast lifetime estimates land
	// within ~1-3% of the device-level MC reference.
	fx := newFixture(t)
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 3000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, ppm := range []float64{1, 10} {
		tFast, err := LifetimePPM(fast, fx.chip, ppm)
		if err != nil {
			t.Fatal(err)
		}
		tMC, err := LifetimePPM(mc, fx.chip, ppm)
		if err != nil {
			t.Fatal(err)
		}
		errPct := math.Abs(tFast-tMC) / tMC * 100
		if errPct > 5 {
			t.Errorf("%v ppm: st_fast %v vs MC %v — %.2f%% error", ppm, tFast, tMC, errPct)
		}
	}
	// And the full curves stay close at moderate probabilities.
	t10, _ := LifetimePPM(mc, fx.chip, 10)
	for _, mult := range []float64{1, 5, 20} {
		pf, _ := fast.FailureProb(t10 * mult)
		pm, _ := mc.FailureProb(t10 * mult)
		if pm > 0 && math.Abs(pf-pm)/pm > 0.12 {
			t.Errorf("P_fail at %v: st_fast %v vs MC %v", t10*mult, pf, pm)
		}
	}
}

func TestStMCMatchesStFast(t *testing.T) {
	fx := newFixture(t)
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	smc, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, aMax := fx.chip.AlphaRange()
	engineAxioms(t, smc, aMax)
	tFast, err := LifetimePPM(fast, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tSMC, err := LifetimePPM(smc, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	if errPct := math.Abs(tFast-tSMC) / tFast * 100; errPct > 4 {
		t.Errorf("st_MC %v vs st_fast %v — %.2f%% apart", tSMC, tFast, errPct)
	}
}

func TestStMCProductMatchesSum(t *testing.T) {
	// The first-order Taylor expansion (Eq. 16) and the cross-block
	// independence assumption must be benign at ppm-scale failure
	// probabilities: the exact product-mode estimate agrees with the
	// sum mode.
	fx := newFixture(t)
	sum, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 20000, Seed: 7, Product: true})
	if err != nil {
		t.Fatal(err)
	}
	tSum, err := LifetimePPM(sum, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tProd, err := LifetimePPM(prod, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	if errPct := math.Abs(tSum-tProd) / tProd * 100; errPct > 3 {
		t.Errorf("Taylor sum %v vs exact product %v — %.2f%% apart", tSum, tProd, errPct)
	}
}

func TestHybridMatchesStFast(t *testing.T) {
	fx := newFixture(t)
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := NewHybrid(fx.chip, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, aMax := fx.chip.AlphaRange()
	engineAxioms(t, hyb, aMax)
	if ls, bs, _ := hyb.tables[0].Data(); len(ls)*len(bs) != 100*100 {
		t.Errorf("table entries = %d×%d", len(ls), len(bs))
	}
	for _, ppm := range []float64{1, 10} {
		tFast, err := LifetimePPM(fast, fx.chip, ppm)
		if err != nil {
			t.Fatal(err)
		}
		tHyb, err := LifetimePPM(hyb, fx.chip, ppm)
		if err != nil {
			t.Fatal(err)
		}
		if errPct := math.Abs(tFast-tHyb) / tFast * 100; errPct > 3 {
			t.Errorf("%v ppm: hybrid %v vs st_fast %v — %.2f%%", ppm, tHyb, tFast, errPct)
		}
	}
}

func TestGuardBandPessimistic(t *testing.T) {
	// Table III: the guard-band method underestimates lifetime by
	// ~40-60%.
	fx := newFixture(t)
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := NewGuardBand(fx.chip, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, aMax := fx.chip.AlphaRange()
	engineAxioms(t, guard, aMax)
	for _, ppm := range []float64{1, 10} {
		tFast, err := LifetimePPM(fast, fx.chip, ppm)
		if err != nil {
			t.Fatal(err)
		}
		tGuard, err := LifetimePPM(guard, fx.chip, ppm)
		if err != nil {
			t.Fatal(err)
		}
		under := (tFast - tGuard) / tFast * 100
		if under < 25 || under > 90 {
			t.Errorf("%v ppm: guard underestimation %.1f%%, outside [25, 90]", ppm, under)
		}
	}
}

func TestGuardClosedFormMatchesBisection(t *testing.T) {
	fx := newFixture(t)
	guard, err := NewGuardBand(fx.chip, 3)
	if err != nil {
		t.Fatal(err)
	}
	target := PPMTarget(10)
	tBisect, err := LifetimePPM(guard, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tClosed, err := guard.LifetimeClosedForm(1 - target)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tBisect, tClosed, 1e-6) {
		t.Errorf("bisection %v vs closed form %v", tBisect, tClosed)
	}
	if _, err := guard.LifetimeClosedForm(1.5); err == nil {
		t.Error("invalid requirement should error")
	}
}

func TestGuardBandValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewGuardBand(nil, 3); err == nil {
		t.Error("nil chip should error")
	}
	if _, err := NewGuardBand(fx.chip, -1); err == nil {
		t.Error("negative sigma should error")
	}
}

func TestTempUnawarePessimisticButLessThanGuard(t *testing.T) {
	// Fig. 10 ordering: MC ≈ temp-aware > temp-unaware > guard.
	fx := newFixture(t)
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	uniChip, err := fx.chip.WithUniformParams(fx.chip.WorstParams())
	if err != nil {
		t.Fatal(err)
	}
	unaware, err := NewStFast(uniChip, 0)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := NewGuardBand(fx.chip, 3)
	if err != nil {
		t.Fatal(err)
	}
	tAware, err := LifetimePPM(fast, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tUnaware, err := LifetimePPM(unaware, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	tGuard, err := LifetimePPM(guard, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(tGuard < tUnaware && tUnaware < tAware) {
		t.Errorf("ordering violated: guard %v, unaware %v, aware %v", tGuard, tUnaware, tAware)
	}
}

func TestMonteCarloFailureTimes(t *testing.T) {
	fx := newFixture(t)
	mc, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	times, err := mc.SampleFailureTimes(4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 4000 {
		t.Fatalf("got %d times", len(times))
	}
	for _, ft := range times {
		if !(ft > 0) || math.IsInf(ft, 0) {
			t.Fatalf("bad failure time %v", ft)
		}
	}
	// Empirical CDF of the sampled failure times must track the
	// engine's analytic FailureProb at a few probe points.
	for _, q := range []float64{0.25, 0.5, 0.75} {
		probe := quantileOf(times, q)
		p, err := mc.FailureProb(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-q) > 0.04 {
			t.Errorf("at the empirical %v-quantile, engine says %v", q, p)
		}
	}
	if _, err := mc.SampleFailureTimes(0, 1); err == nil {
		t.Error("zero count should error")
	}
}

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort is fine at test sizes
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[int(q*float64(len(s)-1))]
}

func TestMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	fx := newFixture(t)
	a, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, aMax := fx.chip.AlphaRange()
	probe := aMax * 1e-7
	pa, _ := a.FailureProb(probe)
	pb, _ := b.FailureProb(probe)
	if pa != pb {
		t.Errorf("same seed, different results: %v vs %v", pa, pb)
	}
}

func TestL0Convergence(t *testing.T) {
	// The paper claims the Fig. 9 midpoint rule is already adequate at
	// l0 = 10; l0 = 10 and 64 must agree to ~2% on lifetime. st_fast
	// sums the integral in closed form, so both engines here use the
	// midpoint rule alone.
	fx := newFixture(t)
	coarse, err := newMidpointEngine(fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := newMidpointEngine(fx.chip, 64)
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
	if errPct := math.Abs(tc-tf) / tf * 100; errPct > 2 {
		t.Errorf("l0=10 vs l0=64 lifetimes differ by %.2f%%", errPct)
	}
}

func TestLifetimeAtValidation(t *testing.T) {
	fx := newFixture(t)
	e, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LifetimeAt(e, 0, 1, 10); err == nil {
		t.Error("zero target should error")
	}
	if _, err := LifetimeAt(e, 1.5, 1, 10); err == nil {
		t.Error("target > 1 should error")
	}
	if _, err := LifetimeAt(e, 0.5, 10, 1); err == nil {
		t.Error("inverted bracket should error")
	}
	// A bracket that misses the crossing must still succeed via
	// automatic growth, on either side, and agree with bisection over
	// the same grown bracket.
	aMin, aMax := fx.chip.AlphaRange()
	want, err := LifetimePPM(e, fx.chip, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range [][2]float64{{aMin * 1e-30, aMin * 1e-29}, {aMax * 1e3, aMax * 1e4}} {
		got, err := LifetimeAt(e, PPMTarget(10), br[0], br[1])
		if err != nil {
			t.Fatalf("bracket growth from %v failed: %v", br, err)
		}
		if !approx(got, want, 1e-6) {
			t.Errorf("grown bracket %v: %v vs direct %v", br, got, want)
		}
		ref, err := bisectLifetime(e, PPMTarget(10), br[0], br[1])
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(math.Log(got / ref)); d > 2e-10 {
			t.Errorf("grown bracket %v: |log t − log t_bisect| = %.3g", br, d)
		}
		if eb, er := targetRelErr(t, e, got, PPMTarget(10)), targetRelErr(t, e, ref, PPMTarget(10)); eb > math.Max(er, targetErrFloor) {
			t.Errorf("grown bracket %v: target error %.3g, bisection's %.3g", br, eb, er)
		}
	}
}

func TestEngineConstructorsRejectNil(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewStFast(nil, 0); err == nil {
		t.Error("NewStFast(nil) should error")
	}
	if _, err := NewStMC(nil, fx.pca, StMCOptions{}); err == nil {
		t.Error("NewStMC(nil chip) should error")
	}
	if _, err := NewStMC(fx.chip, nil, StMCOptions{}); err == nil {
		t.Error("NewStMC(nil pca) should error")
	}
	if _, err := NewMonteCarlo(nil, fx.pca, MCOptions{}); err == nil {
		t.Error("NewMonteCarlo(nil chip) should error")
	}
	if _, err := NewHybrid(nil, HybridOptions{}); err == nil {
		t.Error("NewHybrid(nil) should error")
	}
}

func TestGValue(t *testing.T) {
	// At L=0 (t = α) the per-area exponent is exactly 1:
	// (t/α)^(b·x) = 1 regardless of thickness.
	if got := GValue(0, 0.6, 2.2, 1e-4); !approx(got, 1, 1e-12) {
		t.Errorf("GValue(0) = %v, want 1", got)
	}
	// Hand check at L=-1: exp(-b·u + b²·v/2).
	want := math.Exp(-0.6*2.2 + 0.36*1e-4/2)
	if got := GValue(-1, 0.6, 2.2, 1e-4); !approx(got, want, 1e-12) {
		t.Errorf("GValue(-1) = %v, want %v", got, want)
	}
	// Larger v always increases g (spread hurts reliability).
	if !(GValue(-20, 0.6, 2.2, 3e-4) > GValue(-20, 0.6, 2.2, 1e-4)) {
		t.Error("g not increasing in v")
	}
	// Thicker mean decreases g for t < α (L < 0).
	if !(GValue(-20, 0.6, 2.3, 1e-4) < GValue(-20, 0.6, 2.2, 1e-4)) {
		t.Error("g not decreasing in u for L<0")
	}
}

// LifetimeClosedForm returns t_req = α·(-ln(R_req)/A)^(1/(b·x_min))
// (Eq. 34) for the reliability requirement R_req — no numerical
// search needed, which is why the paper reports no runtime for the
// guard-band method. With an extrinsic population attached the
// closed form no longer applies. It is the reference the engine's
// numerical LifetimeAt is checked against.
func (e *GuardBand) LifetimeClosedForm(rReq float64) (float64, error) {
	if !(rReq > 0) || rReq >= 1 {
		return 0, fmt.Errorf("core: reliability requirement must be in (0,1), got %v", rReq)
	}
	if e.Extrinsic != nil {
		return 0, errors.New("core: no closed-form lifetime with an extrinsic population; solve numerically")
	}
	beta := e.Params.B * e.XMin
	return e.Params.Alpha * math.Pow(-math.Log(rReq)/e.Area, 1/beta), nil
}
