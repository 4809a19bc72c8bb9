// Package thermal is a HotSpot-style steady-state thermal solver. The
// die is discretized into cells; each cell exchanges heat laterally
// with its four neighbours through silicon conduction and vertically
// with the ambient through the package/heat-sink stack:
//
//	gV·(T_c - T_amb) + Σ_n gL·(T_c - T_n) = P_c
//
// The operator is diagonal in the grid's orthonormal cosine basis, so
// the linear system is solved exactly by one direct transform — no
// iteration and no tolerance (see spectral.go). The result is the
// block-structured temperature field of Fig. 1: globally uneven
// (hotspots over execution units), locally uniform within a
// functional block — exactly the structure the paper's "block"
// definition relies on.
package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"

	"obdrel/internal/floorplan"
)

// Solver holds the discretization and package parameters.
type Solver struct {
	// Nx, Ny is the cell resolution of the thermal grid.
	Nx, Ny int
	// GVertical is the total die-to-ambient thermal conductance (W/K)
	// distributed uniformly over the cells.
	GVertical float64
	// GLateral is the cell-to-cell conductance between adjacent cells
	// (W/K); it controls how far hotspots spread.
	GLateral float64
	// TAmbient is the ambient temperature (°C).
	TAmbient float64
}

// DefaultSolver returns the solver calibrated for the normalized 1×1
// benchmark dies: the EV6-like C6 design (~44 W converged power)
// settles at a ~72 °C average with ~28 K of across-die spread and a
// ~88 °C hotspot over the integer execution unit, matching the
// profile magnitudes the paper quotes from HotSpot (Fig. 1).
func DefaultSolver() *Solver {
	return &Solver{
		Nx: 32, Ny: 32,
		GVertical: 1.3,
		GLateral:  0.10,
		TAmbient:  45,
	}
}

// Validate checks the solver parameters.
func (s *Solver) Validate() error {
	switch {
	case s.Nx <= 0 || s.Ny <= 0:
		return fmt.Errorf("thermal: invalid resolution %d×%d", s.Nx, s.Ny)
	case !(s.GVertical > 0):
		return errors.New("thermal: vertical conductance must be positive")
	case s.GLateral < 0:
		return errors.New("thermal: lateral conductance must be non-negative")
	}
	return nil
}

// Field is a solved temperature map.
type Field struct {
	Nx, Ny int
	W, H   float64
	// Temps holds cell temperatures (°C), row-major with index
	// iy*Nx + ix.
	Temps []float64
	// Iterations is 1: the solve is one direct transform. The field is
	// kept for the thermal artifact layout.
	Iterations int
}

// At returns the temperature of the cell containing (x, y), clamping
// coordinates onto the die. A query exactly on the east or north chip
// edge (x == W or y == H) computes ix == Nx / iy == Ny and is clamped
// into the last cell, like any out-of-range coordinate.
func (f *Field) At(x, y float64) float64 {
	ix := int(x / f.W * float64(f.Nx))
	iy := int(y / f.H * float64(f.Ny))
	if ix < 0 {
		ix = 0
	}
	if ix >= f.Nx {
		ix = f.Nx - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= f.Ny {
		iy = f.Ny - 1
	}
	return f.Temps[iy*f.Nx+ix]
}

// MinMax returns the extreme cell temperatures.
func (f *Field) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, t := range f.Temps {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	return min, max
}

// Mean returns the average cell temperature.
func (f *Field) Mean() float64 {
	s := 0.0
	for _, t := range f.Temps {
		s += t
	}
	return s / float64(len(f.Temps))
}

// Solve computes the steady-state temperature field for a design with
// the given per-block powers (one entry per design block, in watts).
func (s *Solver) Solve(d *floorplan.Design, blockPowers []float64) (*Field, error) {
	return s.SolveCtx(context.Background(), d, blockPowers)
}

// SolveCtx is Solve with a cancellation check before the solve. The
// solve itself is one direct transform (spectral.go) of fixed cost
// O(Nx·Ny·(Nx+Ny)), so there is nothing to interrupt inside it.
func (s *Solver) SolveCtx(ctx context.Context, d *floorplan.Design, blockPowers []float64) (*Field, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := s.newSpectral(d)
	if err != nil {
		return nil, err
	}
	if err := m.load(blockPowers); err != nil {
		return nil, err
	}
	return m.field(), nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cellRange returns the cells [i0, i1] of an n-cell axis of pitch w
// that can overlap [lo, hi]: the floor/ceil cell indices, widened by
// one cell on each side so that rounding in lo/w or hi/w cannot drop
// an edge cell, clamped onto the grid. Every cell outside the range
// has zero overlap, so a scan over the range visits exactly the
// overlapping cells of a full scan, in the same order.
func cellRange(lo, hi, w float64, n int) (i0, i1 int) {
	return clampInt(int(math.Floor(lo/w))-1, 0, n-1), clampInt(int(math.Ceil(hi/w))+1, 0, n-1)
}

func overlap1D(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// BlockTemps returns the area-weighted mean and maximum temperature of
// every design block under the field. The reliability analysis uses
// the per-block maximum — the paper's "block-level worst-case
// operating temperature" (Section IV-A).
func (f *Field) BlockTemps(d *floorplan.Design) (mean, max []float64, err error) {
	mean = make([]float64, len(d.Blocks))
	max = make([]float64, len(d.Blocks))
	if err := f.BlockTempsInto(d, mean, max); err != nil {
		return nil, nil, err
	}
	return mean, max, nil
}

// BlockTempsInto is BlockTemps writing into caller-provided slices
// (each len(d.Blocks)). Each block scans only its cell range
// (cellRange), which visits the same cells in the same order as a scan
// of the whole grid, so the result is bit-identical to one.
func (f *Field) BlockTempsInto(d *floorplan.Design, mean, max []float64) error {
	if len(mean) != len(d.Blocks) || len(max) != len(d.Blocks) {
		return fmt.Errorf("thermal: scratch length %d/%d for %d blocks", len(mean), len(max), len(d.Blocks))
	}
	cw := f.W / float64(f.Nx)
	ch := f.H / float64(f.Ny)
	for bi := range d.Blocks {
		b := &d.Blocks[bi]
		var wsum, tsum float64
		tmax := math.Inf(-1)
		ix0, ix1 := cellRange(b.X, b.X+b.W, cw, f.Nx)
		iy0, iy1 := cellRange(b.Y, b.Y+b.H, ch, f.Ny)
		for iy := iy0; iy <= iy1; iy++ {
			oy := overlap1D(b.Y, b.Y+b.H, float64(iy)*ch, float64(iy+1)*ch)
			if oy <= 0 {
				continue
			}
			for ix := ix0; ix <= ix1; ix++ {
				ox := overlap1D(b.X, b.X+b.W, float64(ix)*cw, float64(ix+1)*cw)
				if ox <= 0 {
					continue
				}
				w := ox * oy
				t := f.Temps[iy*f.Nx+ix]
				wsum += w
				tsum += w * t
				if t > tmax {
					tmax = t
				}
			}
		}
		if wsum == 0 {
			return fmt.Errorf("thermal: block %q overlaps no thermal cells", b.Name)
		}
		mean[bi] = tsum / wsum
		max[bi] = tmax
	}
	return nil
}

// EnergyBalance returns the relative imbalance between the heat
// extracted vertically, Σ gv·(T_c - T_amb), and the total injected
// power. A correct steady-state solution makes this ~0; tests use it
// as the conservation check.
func (f *Field) EnergyBalance(s *Solver, totalPower float64) float64 {
	gv := s.GVertical / float64(f.Nx*f.Ny)
	out := 0.0
	for _, t := range f.Temps {
		out += gv * (t - s.TAmbient)
	}
	if totalPower == 0 {
		return math.Abs(out)
	}
	return math.Abs(out-totalPower) / totalPower
}
