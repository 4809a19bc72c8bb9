package thermal

import (
	"context"
	"fmt"
	"math"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/obs"
	"obdrel/internal/power"
)

// fixtureDesigns are the floorplans the equivalence tests sweep: every
// benchmark die plus the synthetic corner cases the unit tests use.
func fixtureDesigns() []*floorplan.Design {
	return []*floorplan.Design{
		floorplan.C1(), floorplan.C2(), floorplan.C3(),
		floorplan.C4(), floorplan.C5(), floorplan.C6(),
		uniformDesign(),
	}
}

func fixturePowers(d *floorplan.Design) []float64 {
	p := make([]float64, len(d.Blocks))
	for i := range p {
		p[i] = 1.5 + float64(i%5)
	}
	return p
}

// cellPowerRef spreads the block powers over the cells by a full scan,
// proportionally to the overlap area: the right-hand side b of A·u = b.
func cellPowerRef(s *Solver, d *floorplan.Design, blockPowers []float64) []float64 {
	cw := d.W / float64(s.Nx)
	ch := d.H / float64(s.Ny)
	p := make([]float64, s.Nx*s.Ny)
	for j := range d.Blocks {
		b := &d.Blocks[j]
		density := blockPowers[j] / b.Area()
		for iy := 0; iy < s.Ny; iy++ {
			oy := overlap1D(b.Y, b.Y+b.H, float64(iy)*ch, float64(iy+1)*ch)
			for ix := 0; ix < s.Nx; ix++ {
				ox := overlap1D(b.X, b.X+b.W, float64(ix)*cw, float64(ix+1)*cw)
				if ox > 0 && oy > 0 {
					p[iy*s.Nx+ix] += density * ox * oy
				}
			}
		}
	}
	return p
}

// applyOperator returns A·u for the 5-point operator
// A = gv·I + gl·(I⊗L_x + L_y⊗I) with insulated edges.
func applyOperator(s *Solver, u []float64) []float64 {
	gv := s.GVertical / float64(s.Nx*s.Ny)
	gl := s.GLateral
	out := make([]float64, len(u))
	for iy := 0; iy < s.Ny; iy++ {
		for ix := 0; ix < s.Nx; ix++ {
			i := iy*s.Nx + ix
			v := gv * u[i]
			if ix > 0 {
				v += gl * (u[i] - u[i-1])
			}
			if ix < s.Nx-1 {
				v += gl * (u[i] - u[i+1])
			}
			if iy > 0 {
				v += gl * (u[i] - u[i-s.Nx])
			}
			if iy < s.Ny-1 {
				v += gl * (u[i] - u[i+s.Nx])
			}
			out[i] = v
		}
	}
	return out
}

// gaussSeidelRef is the iterative reference solver: red-black
// Gauss–Seidel with over-relaxation, run from temps (updated in place)
// until no cell moves by 1e-11 K in a sweep. The relaxation factor is
// the optimum for the uniform-mode Jacobi radius 4gl/(gv+4gl).
func gaussSeidelRef(t testing.TB, s *Solver, cellPower, temps []float64) {
	t.Helper()
	nx, ny := s.Nx, s.Ny
	gv := s.GVertical / float64(nx*ny)
	gl := s.GLateral
	rho := 4 * gl / (gv + 4*gl)
	omega := 2 / (1 + math.Sqrt(1-rho*rho))
	// Per cell: the right-hand side with the ambient term folded in,
	// and the inverse of the diagonal gv + gl·degree.
	rhs := make([]float64, nx*ny)
	invDiag := make([]float64, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			rhs[i] = cellPower[i] + gv*s.TAmbient
			deg := 0
			if ix > 0 {
				deg++
			}
			if ix < nx-1 {
				deg++
			}
			if iy > 0 {
				deg++
			}
			if iy < ny-1 {
				deg++
			}
			invDiag[i] = 1 / (gv + gl*float64(deg))
		}
	}
	for sweep := 0; sweep < 200000; sweep++ {
		maxDelta := 0.0
		for color := 0; color < 2; color++ {
			for iy := 0; iy < ny; iy++ {
				for ix := (color + iy) % 2; ix < nx; ix += 2 {
					i := iy*nx + ix
					nb := 0.0
					if ix > 0 {
						nb += temps[i-1]
					}
					if ix < nx-1 {
						nb += temps[i+1]
					}
					if iy > 0 {
						nb += temps[i-nx]
					}
					if iy < ny-1 {
						nb += temps[i+nx]
					}
					delta := (rhs[i]+gl*nb)*invDiag[i] - temps[i]
					temps[i] += omega * delta
					if delta < 0 {
						delta = -delta
					}
					if delta > maxDelta {
						maxDelta = delta
					}
				}
			}
		}
		if maxDelta < 1e-11 {
			return
		}
	}
	t.Fatal("Gauss–Seidel reference did not converge")
}

// TestSpectralSolveResidual: the direct solve satisfies A·u = b to
// rounding, on degenerate, non-square and fine grids, with and without
// lateral conduction.
func TestSpectralSolveResidual(t *testing.T) {
	d := floorplan.C6()
	powers := fixturePowers(d)
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {7, 5}, {32, 32}, {100, 100}} {
		for _, gl := range []float64{0, DefaultSolver().GLateral} {
			s := DefaultSolver()
			s.Nx, s.Ny = dims[0], dims[1]
			s.GLateral = gl
			f, err := solve(s, d, powers)
			if err != nil {
				t.Fatal(err)
			}
			u := make([]float64, len(f.Temps))
			for i, v := range f.Temps {
				u[i] = v - s.TAmbient
			}
			b := cellPowerRef(s, d, powers)
			au := applyOperator(s, u)
			var res, bmax float64
			for i := range b {
				res = math.Max(res, math.Abs(au[i]-b[i]))
				bmax = math.Max(bmax, math.Abs(b[i]))
			}
			if res > 1e-12*bmax {
				t.Errorf("%dx%d gl=%g: |Au−b|∞ = %.3e, |b|∞ = %.3e", dims[0], dims[1], gl, res, bmax)
			}
		}
	}
}

// TestSpectralMatchesGaussSeidel: the direct solve and a converged
// iterative solve of the same system agree cell for cell, on every
// design fixture and on a fine grid.
func TestSpectralMatchesGaussSeidel(t *testing.T) {
	check := func(t *testing.T, s *Solver, d *floorplan.Design, powers []float64) {
		f, err := solve(s, d, powers)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, s.Nx*s.Ny)
		for i := range ref {
			ref[i] = s.TAmbient
		}
		gaussSeidelRef(t, s, cellPowerRef(s, d, powers), ref)
		var worst float64
		for i := range ref {
			worst = math.Max(worst, math.Abs(ref[i]-f.Temps[i]))
		}
		if worst > 1e-8 {
			t.Fatalf("direct solve differs from Gauss–Seidel by %.3e K, want ≤ 1e-8", worst)
		}
	}
	for _, d := range fixtureDesigns() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			check(t, DefaultSolver(), d, fixturePowers(d))
		})
	}
	t.Run("C6-100x100", func(t *testing.T) {
		d := floorplan.C6()
		powers := make([]float64, len(d.Blocks))
		for i := range powers {
			powers[i] = 0.4 + 0.15*float64(i%5)
		}
		s := DefaultSolver()
		s.Nx, s.Ny = 100, 100
		check(t, s, d, powers)
	})
}

// iterativeCoupledRef is the power↔temperature fixed point solved the
// iterative way: every round spreads the powers over the cells, runs
// Gauss–Seidel to convergence (warm-started from the previous round),
// and reads the block means off the field.
func iterativeCoupledRef(t *testing.T, s *Solver, d *floorplan.Design, powerAt func([]float64) ([]float64, error)) (*CoupledResult, error) {
	temps := make([]float64, len(d.Blocks))
	for i := range temps {
		temps[i] = s.TAmbient
	}
	field := &Field{Nx: s.Nx, Ny: s.Ny, W: d.W, H: d.H, Temps: make([]float64, s.Nx*s.Ny)}
	for i := range field.Temps {
		field.Temps[i] = s.TAmbient
	}
	mean := make([]float64, len(d.Blocks))
	max := make([]float64, len(d.Blocks))
	for round := 1; round <= 25; round++ {
		powers, err := powerAt(temps)
		if err != nil {
			return nil, err
		}
		gaussSeidelRef(t, s, cellPowerRef(s, d, powers), field.Temps)
		if err := field.BlockTempsInto(d, mean, max); err != nil {
			return nil, err
		}
		change := 0.0
		for i := range mean {
			change = math.Max(change, math.Abs(mean[i]-temps[i]))
		}
		copy(temps, mean)
		if change < 0.05 {
			return &CoupledResult{Field: field, BlockMean: mean, BlockMax: max, Powers: powers, Rounds: round}, nil
		}
	}
	return nil, fmt.Errorf("reference fixed point did not converge")
}

// TestCoupledMatchesIterativeReference: over the benchmark dies and a
// fine VDD sweep, the spectral-space rounds reach the iterative
// reference's block temperatures within 1e-8 K in the same number of
// rounds.
func TestCoupledMatchesIterativeReference(t *testing.T) {
	s := DefaultSolver()
	pm := power.Default()
	var worstMean, worstMax float64
	for _, d := range fixtureDesigns()[:6] {
		for step := 0; step <= 50; step++ {
			vdd := 0.90 + 0.01*float64(step)
			powerAt := func(temps []float64) ([]float64, error) { return pm.DesignPowers(d, vdd, temps) }
			got, err := coupled(s, d, powerAt, 0, 0)
			ref, refErr := iterativeCoupledRef(t, s, d, powerAt)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s @ %.2f V: spectral err %v, reference err %v", d.Name, vdd, err, refErr)
			}
			if err != nil {
				continue
			}
			if got.Rounds != ref.Rounds {
				t.Errorf("%s @ %.2f V: %d rounds, reference %d", d.Name, vdd, got.Rounds, ref.Rounds)
			}
			for i := range ref.BlockMean {
				worstMean = math.Max(worstMean, math.Abs(got.BlockMean[i]-ref.BlockMean[i]))
				worstMax = math.Max(worstMax, math.Abs(got.BlockMax[i]-ref.BlockMax[i]))
			}
		}
	}
	t.Logf("worst |ΔBlockMean| %.3e K, |ΔBlockMax| %.3e K", worstMean, worstMax)
	if worstMean > 1e-8 || worstMax > 1e-8 {
		t.Errorf("worst |ΔBlockMean| %.3e K, |ΔBlockMax| %.3e K, want ≤ 1e-8", worstMean, worstMax)
	}
}

// TestSpectralGridRefinement: the discretizations converge to the same
// continuum answer — successive refinements' hotspot temperatures
// approach each other.
func TestSpectralGridRefinement(t *testing.T) {
	d := floorplan.C6()
	powers := fixturePowers(d)
	var maxT []float64
	for _, n := range []int{25, 50, 100, 200} {
		s := &Solver{Nx: n, Ny: n, GVertical: 1.3, GLateral: 0.10, TAmbient: 45}
		f, err := solve(s, d, powers)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, mx := f.MinMax()
		maxT = append(maxT, mx)
	}
	d1 := math.Abs(maxT[1] - maxT[0])
	d3 := math.Abs(maxT[3] - maxT[2])
	if d3 > d1+1e-9 {
		t.Errorf("refinement not converging: hotspot deltas %v then %v (maxT %v)", d1, d3, maxT)
	}
}

// TestSpectralSmallGrids covers degenerate bases: single cells,
// non-square, odd, and one-dimensional shapes.
func TestSpectralSmallGrids(t *testing.T) {
	d := uniformDesign()
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {8, 8}, {7, 13}, {1, 40}, {33, 9}} {
		s := &Solver{Nx: dims[0], Ny: dims[1], GVertical: 1.3, GLateral: 0.10, TAmbient: 45}
		f, err := solve(s, d, []float64{10})
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		// Uniform power: every cell at T_amb + P/G_vertical.
		want := s.TAmbient + 10/s.GVertical
		min, max := f.MinMax()
		if !approx(min, want, 1e-12) || !approx(max, want, 1e-12) {
			t.Errorf("%dx%d: field [%v, %v], want %v", dims[0], dims[1], min, max, want)
		}
	}
}

// TestSpectralZeroLateral: gl = 0 decouples the cells, so every cell
// sits at T_amb + P_c/gv.
func TestSpectralZeroLateral(t *testing.T) {
	s := DefaultSolver()
	s.GLateral = 0
	d := floorplan.C6()
	powers := fixturePowers(d)
	f, err := solve(s, d, powers)
	if err != nil {
		t.Fatal(err)
	}
	gv := s.GVertical / float64(s.Nx*s.Ny)
	for i, p := range cellPowerRef(s, d, powers) {
		if want := s.TAmbient + p/gv; !approx(f.Temps[i], want, 1e-12) {
			t.Fatalf("cell %d: %v, want %v", i, f.Temps[i], want)
		}
	}
}

// blockTempsFullScan is BlockTempsInto scanning every cell for every
// block: the reference the restricted scan must reproduce bit for bit.
func blockTempsFullScan(f *Field, d *floorplan.Design) (mean, max []float64) {
	cw := f.W / float64(f.Nx)
	ch := f.H / float64(f.Ny)
	mean = make([]float64, len(d.Blocks))
	max = make([]float64, len(d.Blocks))
	for bi := range d.Blocks {
		b := &d.Blocks[bi]
		var wsum, tsum float64
		tmax := math.Inf(-1)
		for iy := 0; iy < f.Ny; iy++ {
			oy := overlap1D(b.Y, b.Y+b.H, float64(iy)*ch, float64(iy+1)*ch)
			if oy <= 0 {
				continue
			}
			for ix := 0; ix < f.Nx; ix++ {
				ox := overlap1D(b.X, b.X+b.W, float64(ix)*cw, float64(ix+1)*cw)
				if ox <= 0 {
					continue
				}
				w := ox * oy
				t := f.Temps[iy*f.Nx+ix]
				wsum += w
				tsum += w * t
				tmax = math.Max(tmax, t)
			}
		}
		mean[bi] = tsum / wsum
		max[bi] = tmax
	}
	return mean, max
}

// TestBlockTempsMatchesFullScan: restricting each block's scan to its
// cell range visits the same cells in the same order, so the block
// temperatures are bit-identical to a full scan — on the benchmark dies
// and on blocks whose edges fall off the cell boundaries, at the die
// edges, and on cell boundaries computed with rounding (0.1·k).
func TestBlockTempsMatchesFullScan(t *testing.T) {
	misaligned := &floorplan.Design{
		Name: "misaligned", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "a", X: 0.0137, Y: 0.2211, W: 0.3013, H: 0.1999},
			{Name: "b", X: 0.3, Y: 0.7, W: 0.4, H: 0.3},
			{Name: "c", X: 0.1, Y: 0.1, W: 0.1, H: 0.1},
			{Name: "d", X: 0.9999, Y: 0, W: 0.0001, H: 1},
			{Name: "e", X: 0, Y: 0.6, W: 1, H: 0.1},
		},
	}
	designs := append(fixtureDesigns()[:6], misaligned)
	for _, d := range designs {
		for _, n := range [][2]int{{32, 32}, {25, 25}, {10, 10}, {7, 13}, {1, 1}} {
			s := DefaultSolver()
			s.Nx, s.Ny = n[0], n[1]
			f, err := solve(s, d, fixturePowers(d))
			if err != nil {
				t.Fatal(err)
			}
			mean, max, err := blockTemps(f, d)
			if err != nil {
				t.Fatal(err)
			}
			refMean, refMax := blockTempsFullScan(f, d)
			for i := range mean {
				if mean[i] != refMean[i] || max[i] != refMax[i] {
					t.Fatalf("%s %dx%d block %d: mean %v max %v, full scan %v %v",
						d.Name, n[0], n[1], i, mean[i], max[i], refMean[i], refMax[i])
				}
			}
		}
	}
}

// TestCoupledScratchReuseMatches: the coupled loop and a standalone
// solve at the converged powers share the one H·p path, so they
// produce the same field bit for bit.
func TestCoupledScratchReuseMatches(t *testing.T) {
	s := DefaultSolver()
	d := floorplan.C6()
	powers := fixturePowers(d)
	res, err := coupled(s, d, func(temps []float64) ([]float64, error) {
		// Mildly temperature-dependent power, like leakage.
		p := make([]float64, len(powers))
		for i := range p {
			p[i] = powers[i] * (1 + 0.001*(temps[i]-s.TAmbient))
		}
		return p, nil
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := solve(s, d, res.Powers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Temps {
		if f.Temps[i] != res.Field.Temps[i] {
			t.Fatalf("cell %d: coupled %v vs standalone %v", i, res.Field.Temps[i], f.Temps[i])
		}
	}
}

// TestTracedSolveSpanBudget: a traced coupled solve emits one
// thermal.coupled span however many fixed-point rounds it takes — the
// round count and final change are attributes, not child spans — so a
// traced request's size does not grow with the rounds.
func TestTracedSolveSpanBudget(t *testing.T) {
	d := floorplan.C6()
	pm := power.Default()
	tracedSolve := func(tolK float64) (spans, rounds int, coupled *obs.SpanOut) {
		ctx, root := obs.NewTracer(obs.Options{}).StartTrace(context.Background(), "test", "", "")
		s := DefaultSolver()
		op, err := s.NewOperator(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.SolveCoupledCtx(ctx, op, d, func(temps []float64) ([]float64, error) {
			return pm.DesignPowers(d, 1.2, temps)
		}, tolK, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := root.EndTrace()
		out.Root.Walk(func(sp *obs.SpanOut) {
			if sp.Name == "thermal.coupled" {
				rounds = sp.Attrs["rounds"].(int)
				coupled = sp
			}
		})
		return out.SpanCount, rounds, coupled
	}
	loose, looseRounds, _ := tracedSolve(1)
	tight, tightRounds, coupled := tracedSolve(1e-6)
	if tightRounds <= looseRounds {
		t.Fatalf("tolerances ran %d and %d rounds; the test needs them to differ", looseRounds, tightRounds)
	}
	if loose != tight {
		t.Errorf("span count %d at %d rounds vs %d at %d — spans grow with the rounds", loose, looseRounds, tight, tightRounds)
	}
	if _, ok := coupled.Attrs["last_change_k"]; !ok {
		t.Errorf("thermal.coupled span lacks attribute last_change_k: %v", coupled.Attrs)
	}
}

// BenchmarkCoupledSolve is the thermal stage's build once the design's
// operator is resolved: the power↔temperature fixed point on each
// benchmark die at the default solver and the paper's 1.2 V.
func BenchmarkCoupledSolve(b *testing.B) {
	pm := power.Default()
	for _, d := range fixtureDesigns()[:6] {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			s := DefaultSolver()
			op, err := s.NewOperator(d, 0)
			if err != nil {
				b.Fatal(err)
			}
			powerAt := func(temps []float64) ([]float64, error) { return pm.DesignPowers(d, 1.2, temps) }
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SolveCoupledCtx(ctx, op, d, powerAt, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThermalOperator is the per-design operator build the
// thermal stage resolves once per die and solver grid.
func BenchmarkThermalOperator(b *testing.B) {
	for _, d := range fixtureDesigns()[:6] {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			s := DefaultSolver()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.NewOperator(d, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
