package obdrel

import (
	"math"
	"testing"

	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/stats"
)

// refBlock is an independent reference for one block integral D_j,
// summed cell by cell through expm1: nu midpoint nodes in u over
// U0 ± 10σ_u weighted by the normal PDF, and nv equal cells in the χ²
// variable of v, each weighted by its exact probability mass and
// placed at its conditional mean. The exact masses matter where b̂ < 2
// (the quad-tree model): the χ² density is unbounded at v = V0 there,
// and the Fig. 9 rule, which weights cells by the PDF at their
// midpoints, is itself ≈1.5e-5 off at l0 = 256.
type refBlock struct {
	us, fu, vs, fv []float64
}

func newRefBlock(t *testing.T, bc *blod.BlockChar, nu, nv int) refBlock {
	t.Helper()
	ud, err := bc.UDist()
	if err != nil {
		t.Fatal(err)
	}
	var r refBlock
	du := 20 * ud.Sigma / float64(nu)
	for i := 0; i < nu; i++ {
		u := ud.Mu - 10*ud.Sigma + (float64(i)+0.5)*du
		r.us = append(r.us, u)
		r.fu = append(r.fu, ud.PDF(u)*du)
	}
	if bc.Degenerate {
		r.vs, r.fv = []float64{bc.V0}, []float64{1}
	} else {
		// v = V0 + Â·x with x ~ χ²(b̂). A cell's node is its conditional
		// mean, from x·f_b̂(x) = b̂·f_(b̂+2)(x).
		chi, err := stats.NewChiSquared(bc.BHat)
		if err != nil {
			t.Fatal(err)
		}
		chi2, err := stats.NewChiSquared(bc.BHat + 2)
		if err != nil {
			t.Fatal(err)
		}
		dx := chi.Quantile(1-1e-15) / float64(nv)
		for j := 0; j < nv; j++ {
			a, b := float64(j)*dx, float64(j+1)*dx
			m := chi.CDF(b) - chi.CDF(a)
			r.vs = append(r.vs, bc.V0+bc.AHat*bc.BHat*(chi2.CDF(b)-chi2.CDF(a))/m)
			r.fv = append(r.fv, m)
		}
	}
	for _, w := range [][]float64{r.fu, r.fv} {
		s := 0.0
		for _, x := range w {
			s += x
		}
		for k := range w {
			w[k] /= s
		}
	}
	return r
}

func (r refBlock) failureProb(l, b, area float64) float64 {
	d := 0.0
	for i, u := range r.us {
		row := 0.0
		for j, v := range r.vs {
			row += r.fv[j] * -math.Expm1(-area*core.GValue(l, b, u, v))
		}
		d += r.fu[i] * row
	}
	return d
}

// refChipFailure is Eq. 16's clamped union bound over the reference
// block integrals, with each block's extrinsic hazard merged in.
func refChipFailure(chip *core.Chip, refs []refBlock, t float64) float64 {
	sum := 0.0
	for j, r := range refs {
		p, area := chip.Params[j], chip.Char.Blocks[j].AJ
		d := r.failureProb(math.Log(t/p.Alpha), p.B, area)
		if chip.Extrinsic != nil {
			d += (1 - d) * -math.Expm1(-chip.Extrinsic[j].Hazard(t, area))
		}
		sum += d
	}
	return math.Min(sum, 1)
}

// TestStFastMatchesReference holds st_fast, whose block integrals are
// summed in closed form, within 1e-6 of a 64×256 reference on C1–C6 at
// the paper's setup and under each model variant that changes the BLOD
// marginals or the block parameters. The reference's own error falls
// about 4× per doubling of its v cells (7e-8 here). P_fail is compared
// at st_fast's own 0.1–1e4 ppm lifetimes, where P_fail rises at least
// linearly in t, so the lifetimes agree at least as closely, and at
// 1e2–1e10 h.
func TestStFastMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("sums 30 chips' reference integrals cell by cell")
	}
	const bound = 1e-6
	variants := []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"extrinsic", func(c *Config) { c.Extrinsic = obd.DefaultExtrinsic() }},
		{"wafer pattern", func(c *Config) {
			c.WaferPattern = &grid.WaferPattern{DieX: 0.5, DieY: 0.2, DieSpan: 0.2, Bowl: 0.02}
		}},
		{"quad tree", func(c *Config) { c.QuadTree = true }},
		{"block max temp", func(c *Config) { c.UseBlockMaxTemp = !c.UseBlockMaxTemp }},
	}
	worst := 0.0
	for _, v := range variants {
		for _, d := range Benchmarks() {
			cfg := DefaultConfig()
			v.set(cfg)
			a, err := NewAnalyzer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := core.NewStFast(a.chip, 0)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]refBlock, a.chip.NumBlocks())
			for j := range refs {
				refs[j] = newRefBlock(t, &a.chip.Char.Blocks[j], 64, 256)
			}
			var times []float64
			for _, ppm := range []float64{0.1, 1, 10, 100, 1e4} {
				life, err := core.LifetimePPM(fast, a.chip, ppm)
				if err != nil {
					t.Fatal(err)
				}
				times = append(times, life)
			}
			for h := 1e2; h <= 1e10; h *= 100 {
				times = append(times, h)
			}
			for _, h := range times {
				got, err := fast.FailureProb(h)
				if err != nil {
					t.Fatal(err)
				}
				want := refChipFailure(a.chip, refs, h)
				if e := math.Abs(got-want) / want; !(e <= bound) {
					t.Errorf("%s %s %g h: P_fail %v, reference %v (rel %.2g)", v.name, d.Name, h, got, want, e)
				} else {
					worst = math.Max(worst, e)
				}
			}
		}
	}
	t.Logf("worst relative difference %.2g", worst)
}
