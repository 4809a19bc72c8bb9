package blod

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/stats"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// testSetup builds a 4×4-grid variation model and a two-block design:
// a large left-half block spanning many grids and a small block nested
// inside a single grid (the degenerate case).
func testSetup(t *testing.T) (*floorplan.Design, *grid.Model, *grid.PCA) {
	t.Helper()
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, err := grid.VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := grid.NewModel(2.2, 1, 1, 4, 4, sg, ss, se, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	d := &floorplan.Design{
		Name: "blodtest", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "wide", X: 0, Y: 0, W: 0.5, H: 1, Devices: 5000, Activity: 0.5},
			{Name: "tiny", X: 0.80, Y: 0.30, W: 0.10, H: 0.10, Devices: 500, Activity: 0.5},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, m, p
}

func TestCharacterizeBasics(t *testing.T) {
	d, m, _ := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(c.Blocks))
	}
	for i := range c.Blocks {
		bc := &c.Blocks[i]
		// Grid weights must sum to the device count.
		sum := 0.0
		for _, w := range bc.Weights {
			sum += w
		}
		if !approx(sum, bc.MJ, 1e-9) {
			t.Errorf("block %s: weights sum %v, devices %v", bc.Name, sum, bc.MJ)
		}
		if !approx(bc.U0, m.U0, 1e-12) {
			t.Errorf("block %s: U0 = %v", bc.Name, bc.U0)
		}
		if !approx(bc.V0, m.SigmaE*m.SigmaE, 1e-15) {
			t.Errorf("block %s: V0 = %v", bc.Name, bc.V0)
		}
	}
	// The wide block spans 8 grids; the tiny one exactly 1.
	if got := len(c.Blocks[0].Grids); got != 8 {
		t.Errorf("wide block overlaps %d grids, want 8", got)
	}
	if got := len(c.Blocks[1].Grids); got != 1 {
		t.Errorf("tiny block overlaps %d grids, want 1", got)
	}
}

func TestDegenerateSingleGridBlock(t *testing.T) {
	d, m, p := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	tiny := &c.Blocks[1]
	if !tiny.Degenerate {
		t.Fatal("single-grid block should be degenerate")
	}
	vd, err := tiny.VDist()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vd.(stats.Degenerate); !ok {
		t.Fatalf("VDist = %T, want Degenerate", vd)
	}
	if vd.Mean() != tiny.V0 {
		t.Errorf("degenerate mean %v, want %v", vd.Mean(), tiny.V0)
	}
	// v samples are constant, u still varies.
	rng := rand.New(rand.NewSource(1))
	shifts := p.GridShifts(p.SampleComponents(rng))
	u, v := tiny.UVFromShifts(shifts)
	if v != tiny.V0 {
		t.Errorf("degenerate v sample = %v", v)
	}
	if u == tiny.U0 {
		t.Error("degenerate block's u should still depend on the sample")
	}
}

func TestUVarianceWithinModelBounds(t *testing.T) {
	// The shared inter-die part never averages out, so Var(u_j) ≥
	// σ_g²; and it can never exceed σ_g² + σ_s².
	d, m, _ := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Blocks {
		v := c.Blocks[i].USigma * c.Blocks[i].USigma
		lo := m.SigmaG * m.SigmaG
		hi := m.SigmaG*m.SigmaG + m.SigmaS*m.SigmaS
		if v < lo*0.99 || v > hi*1.01 {
			t.Errorf("block %s: Var(u) = %v outside [%v, %v]", c.Blocks[i].Name, v, lo, hi)
		}
	}
}

// TestMomentsAgainstDeviceLevelMC is the package's central
// correctness test: it simulates the actual device population
// (explicit per-device thickness with grid-assigned correlated shifts
// and independent noise), computes the empirical sample mean/variance
// per chip, and compares their distribution moments against the
// analytic BLOD characterization.
func TestMomentsAgainstDeviceLevelMC(t *testing.T) {
	d, m, p := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	wide := &c.Blocks[0]
	grids, counts := wide.DeviceAllocation()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != int(wide.MJ) {
		t.Fatalf("allocation sums to %d, want %v", total, wide.MJ)
	}

	rng := rand.New(rand.NewSource(21))
	nChips := 3000
	us := make([]float64, nChips)
	vs := make([]float64, nChips)
	for chip := 0; chip < nChips; chip++ {
		shifts := p.GridShifts(p.SampleComponents(rng))
		var sum, sum2 float64
		for gi, g := range grids {
			base := m.U0 + shifts[g]
			for i := 0; i < counts[gi]; i++ {
				x := base + m.SigmaE*rng.NormFloat64()
				sum += x
				sum2 += x * x
			}
		}
		n := float64(total)
		mean := sum / n
		us[chip] = mean
		vs[chip] = (sum2 - n*mean*mean) / (n - 1)
	}

	mu, varU, err := stats.MeanVariance(us)
	if err != nil {
		t.Fatal(err)
	}
	mv, varV, err := stats.MeanVariance(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(mu, wide.U0, 1e-3) {
		t.Errorf("E[u] = %v, want %v", mu, wide.U0)
	}
	if !approx(varU, wide.USigma*wide.USigma, 0.08) {
		t.Errorf("Var[u] = %v, analytic %v", varU, wide.USigma*wide.USigma)
	}
	if !approx(mv, wide.VMean(), 0.02) {
		t.Errorf("E[v] = %v, analytic %v", mv, wide.VMean())
	}
	if !approx(varV, wide.VVariance(), 0.15) {
		t.Errorf("Var[v] = %v, analytic %v", varV, wide.VVariance())
	}
}

func TestChiSquareApproxMatchesQuadForm(t *testing.T) {
	// The χ² moment match must track the empirical distribution of
	// v_j = V0 + zᵀBz — the Fig. 8 comparison.
	d, m, p := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	wide := &c.Blocks[0]
	if wide.Degenerate {
		t.Fatal("wide block should not be degenerate")
	}
	rng := rand.New(rand.NewSource(5))
	n := 40000
	vs := make([]float64, n)
	for i := range vs {
		_, vs[i] = wide.UVFromShifts(p.GridShifts(p.SampleComponents(rng)))
	}
	vd, err := wide.VDist()
	if err != nil {
		t.Fatal(err)
	}
	e, err := stats.NewECDF(vs)
	if err != nil {
		t.Fatal(err)
	}
	// The χ² is an approximation, not the exact law; Fig. 8 shows
	// close but not perfect agreement. KS < 0.05 captures that.
	if ks := e.KSDistance(vd.CDF); ks > 0.05 {
		t.Errorf("χ² approximation KS distance = %v", ks)
	}
	// Moments are matched exactly by construction.
	if !approx(vd.Mean(), wide.VMean(), 1e-9) {
		t.Errorf("χ² mean %v vs exact %v", vd.Mean(), wide.VMean())
	}
	if !approx(vd.Variance(), wide.VVariance(), 1e-9) {
		t.Errorf("χ² variance %v vs exact %v", vd.Variance(), wide.VVariance())
	}
	// Sampled mean/variance of v agree with the analytics too.
	mv, varV, err := stats.MeanVariance(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(mv, wide.VMean(), 0.02) || !approx(varV, wide.VVariance(), 0.1) {
		t.Errorf("sampled v moments (%v, %v) vs analytic (%v, %v)",
			mv, varV, wide.VMean(), wide.VVariance())
	}
}

func TestLemmaUVUncorrelated(t *testing.T) {
	// The paper's Lemma: E[u_j v_j] = E[u_j]E[v_j]. The MC-estimated
	// correlation must vanish.
	d, m, p := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	samples := make([][]float64, 50000)
	for i := range samples {
		samples[i] = p.GridShifts(p.SampleComponents(rng))
	}
	_, corr, err := c.Blocks[0].UVCovarianceMC(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr) > 0.02 {
		t.Errorf("corr(u, v) = %v, want ~0 (Lemma)", corr)
	}
}

func TestMutualInformationSmall(t *testing.T) {
	// The Fig. 6/7 evidence: the joint PDF of (u, v) is close to the
	// product of marginals — mutual information ~0.003 nats.
	d, m, p := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	wide := &c.Blocks[0]
	rng := rand.New(rand.NewSource(99))
	n := 100000
	ud, err := wide.UDist()
	if err != nil {
		t.Fatal(err)
	}
	vd, err := wide.VDist()
	if err != nil {
		t.Fatal(err)
	}
	h, err := stats.NewHistogram2D(
		ud.Quantile(1e-4), ud.Quantile(1-1e-4), 24,
		vd.Quantile(1e-4), vd.Quantile(1-1e-4), 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		u, v := wide.UVFromShifts(p.GridShifts(p.SampleComponents(rng)))
		h.Add(u, v)
	}
	if mi := h.MutualInformation(); mi > 0.02 {
		t.Errorf("mutual information = %v, want ≲ 0.02", mi)
	}
}

func TestUDistProper(t *testing.T) {
	d, m, _ := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Blocks {
		ud, err := c.Blocks[i].UDist()
		if err != nil {
			t.Fatal(err)
		}
		if !approx(ud.Mu, m.U0, 1e-12) || !(ud.Sigma > 0) {
			t.Errorf("block %d UDist = %+v", i, ud)
		}
	}
}

func TestDeviceAllocationExact(t *testing.T) {
	d, m, _ := testSetup(t)
	c, err := Characterize(d, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Blocks {
		bc := &c.Blocks[i]
		grids, counts := bc.DeviceAllocation()
		if len(grids) != len(counts) {
			t.Fatalf("block %s: mismatched allocation lengths", bc.Name)
		}
		total := 0
		for _, n := range counts {
			if n < 0 {
				t.Fatalf("block %s: negative count", bc.Name)
			}
			total += n
		}
		if total != int(bc.MJ) {
			t.Errorf("block %s: allocated %d of %v devices", bc.Name, total, bc.MJ)
		}
	}
}

func TestCharacterizeValidation(t *testing.T) {
	d, m, _ := testSetup(t)
	bad := *d
	bad.W = 2 // mismatched die
	bad.Blocks = append([]floorplan.Block(nil), d.Blocks...)
	if _, err := Characterize(&bad, m); err == nil {
		t.Error("mismatched die should error")
	}
	empty := &floorplan.Design{Name: "e", W: 1, H: 1}
	if _, err := Characterize(empty, m); err == nil {
		t.Error("empty design should error")
	}
}

func BenchmarkCharacterizeC6(b *testing.B) {
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, _ := grid.VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	m, err := grid.NewModel(2.2, 1, 1, 25, 25, sg, ss, se, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	d := floorplan.C6()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(d, m); err != nil {
			b.Fatal(err)
		}
	}
}

// VMean and VVariance return the exact first two moments of v_j
// (before the χ² approximation): mean V0 + tr(B), variance 2·tr(B²).
func (bc *BlockChar) VMean() float64 { return bc.V0 + bc.TrB }

// VVariance returns the exact variance of the quadratic form.
func (bc *BlockChar) VVariance() float64 { return 2 * bc.TrB2 }

// UVCovarianceMC estimates cov(u_j, v_j) and the correlation from
// per-grid shift samples — used to verify the paper's Lemma
// (E[u_j·v_j] = E[u_j]·E[v_j]) numerically.
func (bc *BlockChar) UVCovarianceMC(shiftSamples [][]float64) (cov, corr float64, err error) {
	if len(shiftSamples) < 2 {
		return 0, 0, errors.New("blod: need at least two samples")
	}
	us := make([]float64, len(shiftSamples))
	vs := make([]float64, len(shiftSamples))
	for i, s := range shiftSamples {
		us[i], vs[i] = bc.UVFromShifts(s)
	}
	mu, _, err := stats.MeanVariance(us)
	if err != nil {
		return 0, 0, err
	}
	mv, _, err := stats.MeanVariance(vs)
	if err != nil {
		return 0, 0, err
	}
	for i := range us {
		cov += (us[i] - mu) * (vs[i] - mv)
	}
	cov /= float64(len(us) - 1)
	corr, err = stats.Correlation(us, vs)
	return cov, corr, err
}
