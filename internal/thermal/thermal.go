// Package thermal is a HotSpot-style steady-state thermal solver. The
// die is discretized into cells; each cell exchanges heat laterally
// with its four neighbours through silicon conduction and vertically
// with the ambient through the package/heat-sink stack:
//
//	gV·(T_c - T_amb) + Σ_n gL·(T_c - T_n) = P_c
//
// The system is linear in the block powers, so each die gets one
// Operator (operator.go): the field for one watt in each block, built
// exactly in the grid's orthonormal cosine basis (spectral.go), with
// no iteration and no tolerance. The result is the
// block-structured temperature field of Fig. 1: globally uneven
// (hotspots over execution units), locally uniform within a
// functional block — exactly the structure the paper's "block"
// definition relies on.
package thermal

import (
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
	// Iterations is 1: the field is one direct product H·p. The field
	// is kept for the thermal artifact layout.
	Iterations int
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

// cellRange returns the cells [i0, i1] of an n-cell axis of pitch w
// that can overlap [lo, hi]: the floor/ceil cell indices, widened by
// one cell on each side so that rounding in lo/w or hi/w cannot drop
// an edge cell, clamped onto the grid. Every cell outside the range
// has zero overlap, so a scan over the range visits exactly the
// overlapping cells of a full scan, in the same order.
func cellRange(lo, hi, w float64, n int) (i0, i1 int) {
	return min(max(int(math.Floor(lo/w))-1, 0), n-1), min(max(int(math.Ceil(hi/w))+1, 0), n-1)
}

func overlap1D(a0, a1, b0, b1 float64) float64 {
	return max(min(a1, b1)-max(a0, b0), 0)
}

// BlockTempsInto writes the area-weighted mean and maximum temperature
// of every design block under the field into caller-provided slices
// (each len(d.Blocks)). The reliability analysis uses the per-block
// maximum — the paper's "block-level worst-case operating temperature"
// (Section IV-A). Each block scans only its cell range
// (cellRange), which visits the same cells in the same order as a scan
// of the whole grid, so the result is bit-identical to one. A block's
// x overlaps are computed once, not once per row.
func (f *Field) BlockTempsInto(d *floorplan.Design, mean, max []float64) error {
	if len(mean) != len(d.Blocks) || len(max) != len(d.Blocks) {
		return fmt.Errorf("thermal: scratch length %d/%d for %d blocks", len(mean), len(max), len(d.Blocks))
	}
	cw := f.W / float64(f.Nx)
	ch := f.H / float64(f.Ny)
	ox := make([]float64, f.Nx)
	for bi := range d.Blocks {
		b := &d.Blocks[bi]
		var wsum, tsum float64
		tmax := math.Inf(-1)
		ix0, ix1 := cellRange(b.X, b.X+b.W, cw, f.Nx)
		iy0, iy1 := cellRange(b.Y, b.Y+b.H, ch, f.Ny)
		for ix := ix0; ix <= ix1; ix++ {
			ox[ix] = overlap1D(b.X, b.X+b.W, float64(ix)*cw, float64(ix+1)*cw)
		}
		for iy := iy0; iy <= iy1; iy++ {
			oy := overlap1D(b.Y, b.Y+b.H, float64(iy)*ch, float64(iy+1)*ch)
			if oy <= 0 {
				continue
			}
			for ix := ix0; ix <= ix1; ix++ {
				if ox[ix] <= 0 {
					continue
				}
				w := ox[ix] * oy
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
