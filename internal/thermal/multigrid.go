package thermal

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"

	"obdrel/internal/obs"
	"obdrel/internal/par"
)

// Geometric multigrid for the HotSpot-style 5-point system
//
//	(gv_i + gl·deg_i)·T_i − gl·Σ_n T_n = P_i + gv_i·T_amb
//
// A V-cycle smooths the high-frequency error with red-black
// Gauss–Seidel sweeps, restricts the residual onto a cell-centered
// grid of half the resolution (full weighting: each coarse cell sums
// the residual power of the fine cells it covers, which conserves
// energy exactly), recurses, and prolongs the coarse correction back
// with bilinear interpolation. The coarse operator is the
// rediscretization of the same physics: a coarse cell's vertical
// conductance is the sum of its children's (Σ gv is GVertical at
// every level) and the lateral conductance is unchanged (in 2-D, two
// parallel paths of two series gl links have conductance gl again).
// The coarsest level — at most coarseCells cells — is solved directly
// through a dense LU factorization computed once per state.
//
// Determinism: the smoother updates one checkerboard color at a time,
// reading only the other color, and restriction/prolongation write
// disjoint cells with a fixed inner summation order, so the solution
// is bit-identical for every worker count, including 1.

// Multigrid tuning constants: pre-/post-smoothing sweeps per level and
// the cell count below which a level is solved directly.
const (
	mgPreSmooth  = 2
	mgPostSmooth = 2
	coarseCells  = 64
)

// mgLevel is one grid of the multigrid hierarchy with its per-cell
// state and, on coarse levels, the geometry linking it to its finer
// parent.
type mgLevel struct {
	nx, ny int
	gv     []float64 // per-cell vertical conductance (W/K)
	u      []float64 // iterate: temperatures on the finest level, error corrections below
	f      []float64 // right-hand side: power+ambient on the finest level, restricted residual below
	r      []float64 // residual scratch

	// Fine→coarse geometry (set on every level below the finest):
	// fine columns [colStart[I], colStart[I+1]) restrict into coarse
	// column I, and likewise rows; xi0/xi1/xw (per fine column) and
	// yi0/yi1/yw (per fine row) are the clamped bilinear interpolation
	// stencils used to prolong this level's correction onto the parent.
	colStart, rowStart []int
	xi0, xi1           []int
	xw                 []float64
	yi0, yi1           []int
	yw                 []float64
}

// mgState is the reusable multigrid hierarchy for one solver
// configuration: the level grids plus the dense factorization of the
// coarsest operator.
type mgState struct {
	levels []*mgLevel
	lu     *denseLU
	prev   []float64 // previous fine iterate, for the per-cycle delta
	dims   string    // "32x32>16x16>8x8" for the span attrs
}

func (l *mgLevel) idx(ix, iy int) int { return iy*l.nx + ix }

// newMGState builds the level hierarchy for the solver's grid. Each
// coarsening halves both dimensions (rounding up), aggregating the
// vertical conductances, until the grid fits the direct solver.
func newMGState(s *Solver) (*mgState, error) {
	fine := &mgLevel{nx: s.Nx, ny: s.Ny}
	nc := s.Nx * s.Ny
	fine.gv = make([]float64, nc)
	gvCell := s.GVertical / float64(nc)
	for i := range fine.gv {
		fine.gv[i] = gvCell
	}
	fine.u = make([]float64, nc)
	fine.f = make([]float64, nc)
	fine.r = make([]float64, nc)

	m := &mgState{levels: []*mgLevel{fine}}
	for last := fine; last.nx*last.ny > coarseCells; {
		nxc, nyc := (last.nx+1)/2, (last.ny+1)/2
		if nxc == last.nx && nyc == last.ny {
			break
		}
		c := coarsen(last, nxc, nyc)
		m.levels = append(m.levels, c)
		last = c
	}
	var dims strings.Builder
	for i, l := range m.levels {
		if i > 0 {
			dims.WriteByte('>')
		}
		dims.WriteString(strconv.Itoa(l.nx))
		dims.WriteByte('x')
		dims.WriteString(strconv.Itoa(l.ny))
	}
	m.dims = dims.String()
	m.prev = make([]float64, nc)

	lu, err := newDenseLU(m.levels[len(m.levels)-1], s.GLateral)
	if err != nil {
		return nil, err
	}
	m.lu = lu
	return m, nil
}

// coarsen builds the next-coarser level under fine, with the
// restriction ranges, aggregated conductances, and prolongation
// stencils that tie the pair together.
func coarsen(fine *mgLevel, nxc, nyc int) *mgLevel {
	c := &mgLevel{nx: nxc, ny: nyc}
	ncc := nxc * nyc
	c.gv = make([]float64, ncc)
	c.u = make([]float64, ncc)
	c.f = make([]float64, ncc)
	c.r = make([]float64, ncc)

	// Fine index ix maps to coarse column ix·nxc/nx (floor), so coarse
	// column I covers fine columns [⌈I·nx/nxc⌉, ⌈(I+1)·nx/nxc⌉).
	c.colStart = make([]int, nxc+1)
	for i := 0; i <= nxc; i++ {
		c.colStart[i] = (i*fine.nx + nxc - 1) / nxc
	}
	c.rowStart = make([]int, nyc+1)
	for j := 0; j <= nyc; j++ {
		c.rowStart[j] = (j*fine.ny + nyc - 1) / nyc
	}
	for iy := 0; iy < fine.ny; iy++ {
		cy := iy * nyc / fine.ny
		for ix := 0; ix < fine.nx; ix++ {
			cx := ix * nxc / fine.nx
			c.gv[cy*nxc+cx] += fine.gv[iy*fine.nx+ix]
		}
	}

	// Bilinear prolongation stencil per fine coordinate: position the
	// fine cell center in coarse index space and interpolate between
	// the two surrounding coarse centers, clamping at the boundary
	// (constant extrapolation — consistent with the insulated edges).
	c.xi0, c.xi1, c.xw = interpStencil(fine.nx, nxc)
	c.yi0, c.yi1, c.yw = interpStencil(fine.ny, nyc)
	return c
}

func interpStencil(nFine, nCoarse int) (i0s, i1s []int, ws []float64) {
	i0s = make([]int, nFine)
	i1s = make([]int, nFine)
	ws = make([]float64, nFine)
	for i := 0; i < nFine; i++ {
		p := (float64(i)+0.5)*float64(nCoarse)/float64(nFine) - 0.5
		i0 := int(math.Floor(p))
		w := p - float64(i0)
		if i0 < 0 {
			i0, w = 0, 0
		}
		i1 := i0 + 1
		if i1 > nCoarse-1 {
			i1 = nCoarse - 1
		}
		if i0 > nCoarse-1 {
			i0 = nCoarse - 1
		}
		i0s[i], i1s[i], ws[i] = i0, i1, w
	}
	return i0s, i1s, ws
}

// smooth runs red-black Gauss–Seidel sweeps on A·u = f. Within a
// phase every update reads only opposite-color cells, so the row fan-out
// over workers cannot change the result.
func (l *mgLevel) smooth(workers, sweeps int, gl float64) {
	for s := 0; s < sweeps; s++ {
		for phase := 0; phase < 2; phase++ {
			par.ForChunks(workers, l.ny, 4, func(yLo, yHi int) {
				for iy := yLo; iy < yHi; iy++ {
					for ix := (phase + iy) % 2; ix < l.nx; ix += 2 {
						i := iy*l.nx + ix
						num := l.f[i]
						den := l.gv[i]
						if ix > 0 {
							num += gl * l.u[i-1]
							den += gl
						}
						if ix < l.nx-1 {
							num += gl * l.u[i+1]
							den += gl
						}
						if iy > 0 {
							num += gl * l.u[i-l.nx]
							den += gl
						}
						if iy < l.ny-1 {
							num += gl * l.u[i+l.nx]
							den += gl
						}
						l.u[i] = num / den
					}
				}
			})
		}
	}
}

// residual computes r = f − A·u.
func (l *mgLevel) residual(workers int, gl float64) {
	par.ForChunks(workers, l.ny, 4, func(yLo, yHi int) {
		for iy := yLo; iy < yHi; iy++ {
			for ix := 0; ix < l.nx; ix++ {
				i := iy*l.nx + ix
				au := l.gv[i] * l.u[i]
				if ix > 0 {
					au += gl * (l.u[i] - l.u[i-1])
				}
				if ix < l.nx-1 {
					au += gl * (l.u[i] - l.u[i+1])
				}
				if iy > 0 {
					au += gl * (l.u[i] - l.u[i-l.nx])
				}
				if iy < l.ny-1 {
					au += gl * (l.u[i] - l.u[i+l.nx])
				}
				l.r[i] = l.f[i] - au
			}
		}
	})
}

// restrict sums the fine residual into the coarse right-hand side
// (full weighting over each coarse cell's children — residual power is
// conserved) and zeroes the coarse iterate for the error equation.
func restrict(fine, coarse *mgLevel, workers int) {
	par.ForChunks(workers, coarse.ny, 4, func(yLo, yHi int) {
		for cy := yLo; cy < yHi; cy++ {
			for cx := 0; cx < coarse.nx; cx++ {
				sum := 0.0
				for iy := coarse.rowStart[cy]; iy < coarse.rowStart[cy+1]; iy++ {
					row := iy * fine.nx
					for ix := coarse.colStart[cx]; ix < coarse.colStart[cx+1]; ix++ {
						sum += fine.r[row+ix]
					}
				}
				ci := cy*coarse.nx + cx
				coarse.f[ci] = sum
				coarse.u[ci] = 0
			}
		}
	})
}

// prolong adds the bilinear interpolation of the coarse correction to
// the fine iterate.
func prolong(fine, coarse *mgLevel, workers int) {
	par.ForChunks(workers, fine.ny, 4, func(yLo, yHi int) {
		for iy := yLo; iy < yHi; iy++ {
			j0 := coarse.yi0[iy] * coarse.nx
			j1 := coarse.yi1[iy] * coarse.nx
			wy := coarse.yw[iy]
			row := iy * fine.nx
			for ix := 0; ix < fine.nx; ix++ {
				i0, i1, wx := coarse.xi0[ix], coarse.xi1[ix], coarse.xw[ix]
				top := (1-wx)*coarse.u[j0+i0] + wx*coarse.u[j0+i1]
				bot := (1-wx)*coarse.u[j1+i0] + wx*coarse.u[j1+i1]
				fine.u[row+ix] += (1-wy)*top + wy*bot
			}
		}
	})
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// vcycle runs one V-cycle over the hierarchy. The residual computed
// after pre-smoothing on each level stays in that level's r, so the
// caller can report the final cycle's per-level residuals.
func (m *mgState) vcycle(workers int, gl float64) {
	n := len(m.levels)
	for k := 0; k < n-1; k++ {
		l := m.levels[k]
		l.smooth(workers, mgPreSmooth, gl)
		l.residual(workers, gl)
		restrict(l, m.levels[k+1], workers)
	}
	coarse := m.levels[n-1]
	m.lu.solve(coarse.f, coarse.u)
	for k := n - 2; k >= 0; k-- {
		prolong(m.levels[k], m.levels[k+1], workers)
		m.levels[k].smooth(workers, mgPostSmooth, gl)
	}
}

// runMultigrid drives V-cycles on the finest level until the largest
// per-cycle temperature update falls below the tolerance — the same
// convergence semantics as the SOR sweep.
func (st *solveState) runMultigrid(ctx context.Context) error {
	s := st.s
	if st.mg == nil {
		mg, err := newMGState(s)
		if err != nil {
			return err
		}
		st.mg = mg
	}
	m := st.mg
	fine := m.levels[0]
	gl := s.GLateral
	copy(fine.u, st.temps)
	for i := range fine.f {
		fine.f[i] = st.cellPower[i] + fine.gv[i]*s.TAmbient
	}

	// Per-solve telemetry mirroring the SOR span: the cycle count plays
	// the role of "iterations" and the final per-cycle update the
	// "residual", plus the last cycle's per-level smoothing residuals.
	// One span per solve, never one per cycle: the span count of a
	// traced request must not grow with the cycle count.
	_, sp := obs.StartSpan(ctx, "thermal.multigrid")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("grid", s.Nx*s.Ny)
		sp.SetAttr("workers", st.workers)
		sp.SetAttr("levels", len(m.levels))
		sp.SetAttr("level_dims", m.dims)
	}

	maxCycles := st.maxIter
	if maxCycles > 500 {
		maxCycles = 500
	}
	lastDelta := math.Inf(1)
	cycle := 0
	if len(m.levels) == 1 {
		// The whole grid fits the direct solver: one exact solve.
		m.lu.solve(fine.f, fine.u)
		lastDelta = 0
		cycle = 1
	} else {
		for ; cycle < maxCycles; cycle++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			copy(m.prev, fine.u)
			m.vcycle(st.workers, gl)
			maxDelta := 0.0
			for i, u := range fine.u {
				if d := math.Abs(u - m.prev[i]); d > maxDelta {
					maxDelta = d
				}
			}
			lastDelta = maxDelta
			if maxDelta < st.tol {
				cycle++
				break
			}
		}
	}
	copy(st.temps, fine.u)
	if sp != nil {
		sp.SetAttr("cycles", cycle)
		sp.SetAttr("iterations", cycle)
		sp.SetAttr("residual", lastDelta)
		for k, l := range m.levels[:len(m.levels)-1] {
			sp.SetAttr("residual_l"+strconv.Itoa(k), maxAbs(l.r))
		}
		coarse := m.levels[len(m.levels)-1]
		sp.SetAttr("coarse_cells", coarse.nx*coarse.ny)
	}
	st.iterations = cycle
	st.lastDelta = lastDelta
	if cycle >= maxCycles && lastDelta >= st.tol {
		return errors.New("thermal: multigrid did not converge")
	}
	return nil
}

// denseLU is the pivoted LU factorization of the coarsest level's
// operator, computed once and back-substituted every cycle.
type denseLU struct {
	n   int
	a   []float64 // packed L\U, row-major
	piv []int
}

func newDenseLU(l *mgLevel, gl float64) (*denseLU, error) {
	n := l.nx * l.ny
	a := make([]float64, n*n)
	for iy := 0; iy < l.ny; iy++ {
		for ix := 0; ix < l.nx; ix++ {
			i := iy*l.nx + ix
			diag := l.gv[i]
			set := func(j int) {
				a[i*n+j] = -gl
				diag += gl
			}
			if ix > 0 {
				set(i - 1)
			}
			if ix < l.nx-1 {
				set(i + 1)
			}
			if iy > 0 {
				set(i - l.nx)
			}
			if iy < l.ny-1 {
				set(i + l.nx)
			}
			a[i*n+i] = diag
		}
	}
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivoting; the operator is strictly diagonally
		// dominant (gv > 0), so a zero pivot means a programming error.
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return nil, errors.New("thermal: singular coarse operator")
		}
		piv[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
		}
		inv := 1 / a[k*n+k]
		for i := k + 1; i < n; i++ {
			m := a[i*n+k] * inv
			a[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= m * a[k*n+j]
			}
		}
	}
	return &denseLU{n: n, a: a, piv: piv}, nil
}

// solve computes x = A⁻¹·b. b is left unchanged (unless x aliases it).
func (lu *denseLU) solve(b, x []float64) {
	n := lu.n
	if &b[0] != &x[0] {
		copy(x, b)
	}
	for k := 0; k < n; k++ {
		if p := lu.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu.a[i*n : i*n+i]
		for j, m := range row {
			s -= m * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu.a[i*n+i+1 : i*n+n]
		for j, m := range row {
			s -= m * x[i+1+j]
		}
		x[i] = s / lu.a[i*n+i]
	}
}
