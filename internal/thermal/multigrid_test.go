package thermal

import (
	"context"
	"fmt"
	"math"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/obs"
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

// TestMultigridMatchesSOR: both methods solve the same linear system,
// so at a tight tolerance their fields agree everywhere. This is the
// tentpole's equivalence gate, swept over every design fixture.
func TestMultigridMatchesSOR(t *testing.T) {
	for _, d := range fixtureDesigns() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			powers := fixturePowers(d)
			mk := func(method string) *Solver {
				s := DefaultSolver()
				s.Method = method
				s.Tol = 1e-9
				s.MaxIter = 200000
				return s
			}
			fs, err := mk(MethodSOR).Solve(d, powers)
			if err != nil {
				t.Fatal(err)
			}
			fm, err := mk(MethodMultigrid).Solve(d, powers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range fs.Temps {
				if diff := math.Abs(fs.Temps[i] - fm.Temps[i]); diff > 1e-6 {
					t.Fatalf("cell %d: sor %v vs multigrid %v (diff %v)", i, fs.Temps[i], fm.Temps[i], diff)
				}
			}
		})
	}
	// At 100×100 SOR's true error sits orders of magnitude above its
	// per-sweep delta, so multigrid at Tol 1e-9 is judged against a
	// converged SOR reference (Tol 1e-11), within 1e-7 K.
	t.Run("C6-100x100", func(t *testing.T) {
		d := floorplan.C6()
		powers := make([]float64, len(d.Blocks))
		for i := range powers {
			powers[i] = 0.4 + 0.15*float64(i%5)
		}
		mk := func(method string, tol float64) *Solver {
			s := DefaultSolver()
			s.Nx, s.Ny = 100, 100
			s.Method = method
			s.Tol = tol
			s.MaxIter = 500000
			return s
		}
		ref, err := mk(MethodSOR, 1e-11).Solve(d, powers)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := mk(MethodMultigrid, 1e-9).Solve(d, powers)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range ref.Temps {
			worst = math.Max(worst, math.Abs(ref.Temps[i]-fm.Temps[i]))
		}
		if worst > 1e-7 {
			t.Fatalf("multigrid differs from converged SOR by %.3e K, want ≤ 1e-7", worst)
		}
	})
}

// TestMultigridBitStableAcrossWorkers: the red-black smoothing order is
// the same at every worker count, so the solved field must be
// bit-identical — stronger than SOR's ≥2-only guarantee.
func TestMultigridBitStableAcrossWorkers(t *testing.T) {
	d := floorplan.C6()
	powers := fixturePowers(d)
	var ref *Field
	for _, w := range []int{1, 2, 3, 5, 8} {
		s := DefaultSolver()
		s.Method = MethodMultigrid
		s.Workers = w
		f, err := s.Solve(d, powers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = f
			continue
		}
		if f.Iterations != ref.Iterations {
			t.Fatalf("workers=%d: %d cycles vs %d at workers=1", w, f.Iterations, ref.Iterations)
		}
		for i := range f.Temps {
			if f.Temps[i] != ref.Temps[i] {
				t.Fatalf("workers=%d: cell %d = %v, workers=1 = %v (not bit-identical)",
					w, i, f.Temps[i], ref.Temps[i])
			}
		}
	}
}

// TestMultigridGridRefinement is the O(N) scaling property: the
// V-cycle count stays essentially flat as the grid refines (SOR's
// sweep count grows super-linearly), and the solved physics converge
// to the same continuum answer.
func TestMultigridGridRefinement(t *testing.T) {
	d := floorplan.C6()
	powers := fixturePowers(d)
	var cycles []int
	var maxT []float64
	for _, n := range []int{25, 50, 100, 200} {
		s := &Solver{Nx: n, Ny: n, GVertical: 1.3, GLateral: 0.10, TAmbient: 45, Method: MethodMultigrid}
		f, err := s.Solve(d, powers)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, mx := f.MinMax()
		cycles = append(cycles, f.Iterations)
		maxT = append(maxT, mx)
	}
	// Cycle counts must not grow with resolution beyond a small
	// constant factor — that is what makes the total cost O(N).
	for i := 1; i < len(cycles); i++ {
		if cycles[i] > 2*cycles[0] {
			t.Errorf("cycles grew with resolution: %v", cycles)
		}
	}
	// The discretizations converge: successive refinements' hotspot
	// temperatures approach each other.
	d1 := math.Abs(maxT[1] - maxT[0])
	d3 := math.Abs(maxT[3] - maxT[2])
	if d3 > d1+1e-9 {
		t.Errorf("refinement not converging: hotspot deltas %v then %v (maxT %v)", d1, d3, maxT)
	}
}

// TestMultigridSmallGrids covers the degenerate hierarchies: grids at
// or below the direct-solve threshold (single level) and non-square,
// odd, and one-dimensional shapes.
func TestMultigridSmallGrids(t *testing.T) {
	d := uniformDesign()
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {8, 8}, {7, 13}, {1, 40}, {33, 9}} {
		s := &Solver{Nx: dims[0], Ny: dims[1], GVertical: 1.3, GLateral: 0.10, TAmbient: 45, Method: MethodMultigrid}
		f, err := s.Solve(d, []float64{10})
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		// Uniform power: every cell at T_amb + P/G_vertical.
		want := s.TAmbient + 10/s.GVertical
		min, max := f.MinMax()
		if !approx(min, want, 1e-4) || !approx(max, want, 1e-4) {
			t.Errorf("%dx%d: field [%v, %v], want %v", dims[0], dims[1], min, max, want)
		}
	}
}

// TestMultigridZeroLateral: gl = 0 decouples the cells; the system is
// diagonal and multigrid must still solve it.
func TestMultigridZeroLateral(t *testing.T) {
	s := DefaultSolver()
	s.GLateral = 0
	s.Method = MethodMultigrid
	f, err := s.Solve(uniformDesign(), []float64{13})
	if err != nil {
		t.Fatal(err)
	}
	want := s.TAmbient + 13/s.GVertical
	min, max := f.MinMax()
	if !approx(min, want, 1e-6) || !approx(max, want, 1e-6) {
		t.Errorf("field [%v, %v], want %v", min, max, want)
	}
}

// TestSolverMethodValidation: unknown methods are rejected, known ones
// (and the empty default) accepted.
func TestSolverMethodValidation(t *testing.T) {
	for _, m := range []string{"", MethodSOR, MethodMultigrid} {
		s := DefaultSolver()
		s.Method = m
		if err := s.Validate(); err != nil {
			t.Errorf("method %q: %v", m, err)
		}
	}
	s := DefaultSolver()
	s.Method = "jacobi"
	if err := s.Validate(); err == nil {
		t.Error("unknown method should fail validation")
	}
	if DefaultSolver().ResolvedMethod() != MethodMultigrid {
		t.Error("empty method should resolve to multigrid")
	}
}

// TestFieldAtExactEdge is the boundary-lookup regression: a query
// exactly on the east/north chip edge computes ix == Nx / iy == Ny and
// must clamp into the last cell instead of reading out of range.
func TestFieldAtExactEdge(t *testing.T) {
	s := DefaultSolver()
	d := uniformDesign()
	f, err := s.Solve(d, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	last := f.At(float64(f.Nx-1)/float64(f.Nx)*d.W+1e-9, float64(f.Ny-1)/float64(f.Ny)*d.H+1e-9)
	if got := f.At(d.W, d.H); got != last {
		t.Errorf("At(W, H) = %v, want last cell %v", got, last)
	}
	if got := f.At(d.W, 0); got != f.At(d.W-1e-9, 0) {
		t.Errorf("At(W, 0) = %v, want east-edge cell %v", got, f.At(d.W-1e-9, 0))
	}
	if got := f.At(0, d.H); got != f.At(0, d.H-1e-9) {
		t.Errorf("At(0, H) = %v, want north-edge cell %v", got, f.At(0, d.H-1e-9))
	}
}

// TestCoupledScratchReuseMatches: the scratch-reusing coupled loop must
// produce the same result as composing SolveCtx calls by hand.
func TestCoupledScratchReuseMatches(t *testing.T) {
	s := DefaultSolver()
	d := floorplan.C6()
	powers := fixturePowers(d)
	res, err := s.SolveCoupled(d, func(temps []float64) ([]float64, error) {
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
	// One more standalone solve at the converged powers must reproduce
	// the coupled field exactly (the state resets per round).
	f, err := s.Solve(d, res.Powers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Temps {
		if f.Temps[i] != res.Field.Temps[i] {
			t.Fatalf("cell %d: coupled %v vs standalone %v", i, res.Field.Temps[i], f.Temps[i])
		}
	}
}

// TestTracedSolveSpanBudget: a traced coupled solve emits one span per
// fixed-point round however many V-cycles each round takes — the cycle
// count and final per-level residuals are attributes, not child spans —
// so a traced request's size does not grow with solver effort.
func TestTracedSolveSpanBudget(t *testing.T) {
	d := floorplan.C6()
	powers := fixturePowers(d)
	tracedSolve := func(tol float64) (spans, cycles int, mg *obs.SpanOut) {
		s := DefaultSolver()
		s.Tol = tol
		ctx, root := obs.NewTracer(obs.Options{}).StartTrace(context.Background(), "test", "", "")
		_, err := s.SolveCoupledCtx(ctx, d, func([]float64) ([]float64, error) { return powers, nil }, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := root.EndTrace()
		out.Root.Walk(func(sp *obs.SpanOut) {
			if sp.Name == "thermal.multigrid" {
				cycles += sp.Attrs["cycles"].(int)
				mg = sp
			}
		})
		return out.SpanCount, cycles, mg
	}
	loose, looseCycles, _ := tracedSolve(1e-3)
	tight, tightCycles, mg := tracedSolve(1e-11)
	if tightCycles <= looseCycles {
		t.Fatalf("tolerances ran %d and %d V-cycles; the test needs them to differ", looseCycles, tightCycles)
	}
	if loose != tight {
		t.Errorf("span count %d at %d V-cycles vs %d at %d — spans grow with the cycle count", loose, looseCycles, tight, tightCycles)
	}
	for _, key := range []string{"cycles", "residual", "residual_l0", "coarse_cells"} {
		if _, ok := mg.Attrs[key]; !ok {
			t.Errorf("thermal.multigrid span lacks attribute %q: %v", key, mg.Attrs)
		}
	}
}

func benchmarkSolve(b *testing.B, method string, n int) {
	d := floorplan.C6()
	powers := fixturePowers(d)
	s := &Solver{Nx: n, Ny: n, GVertical: 1.3, GLateral: 0.10, TAmbient: 45, Method: method}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(d, powers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveMethods(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		for _, m := range []string{MethodSOR, MethodMultigrid} {
			b.Run(fmt.Sprintf("%s/%d", m, n), func(b *testing.B) {
				benchmarkSolve(b, m, n)
			})
		}
	}
}
