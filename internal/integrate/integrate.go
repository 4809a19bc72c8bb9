// Package integrate supplies the bilinear lookup tables of the hybrid
// engine (Section IV-E) and the evenly spaced axes they are built on.
package integrate

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/par"
)

// Table2D is a rectilinear lookup table with bilinear interpolation,
// used by the hybrid engine: per-block integral values are tabulated
// over the (ln(t/α), b) plane and queried by interpolation.
type Table2D struct {
	xs, ys []float64 // strictly increasing axes
	vals   []float64 // len(xs)*len(ys), row-major in x
}

// checkAxes rejects axes with fewer than 2 points each, then checks
// both with checkAxis.
func checkAxes(xs, ys []float64) error {
	if len(xs) < 2 || len(ys) < 2 {
		return errors.New("integrate: Table2D needs at least 2 points per axis")
	}
	if err := checkAxis("x", xs); err != nil {
		return err
	}
	return checkAxis("y", ys)
}

// checkAxis rejects non-finite points and points that are not strictly
// increasing. The comparison is negated so a NaN fails it.
func checkAxis(name string, axis []float64) error {
	for i, v := range axis {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("integrate: %s axis not finite at %d", name, i)
		}
		if i > 0 && !(v > axis[i-1]) {
			return fmt.Errorf("integrate: %s axis not strictly increasing at %d", name, i)
		}
	}
	return nil
}

// NewTable2DWorkers builds a table from strictly increasing axes and a
// fill function evaluated at every grid point, fanned out over workers
// (0 = GOMAXPROCS, 1 = serial), one x-row at a time. Every
// entry is computed independently from its grid point, so the table is
// bit-identical for every worker count. fill must be safe for
// concurrent calls when workers != 1.
func NewTable2DWorkers(xs, ys []float64, fill func(x, y float64) float64, workers int) (*Table2D, error) {
	if err := checkAxes(xs, ys); err != nil {
		return nil, err
	}
	t := &Table2D{
		xs:   append([]float64(nil), xs...),
		ys:   append([]float64(nil), ys...),
		vals: make([]float64, len(xs)*len(ys)),
	}
	par.For(workers, len(t.xs), func(i int) {
		x := t.xs[i]
		row := t.vals[i*len(t.ys) : (i+1)*len(t.ys)]
		for j, y := range t.ys {
			row[j] = fill(x, y)
		}
	})
	return t, nil
}

// NewTable2DFromData wraps precomputed axes and values WITHOUT
// copying — the caller's slices become the table's backing store, so
// a decoded artifact and the tables built from it share one copy.
// Callers must not mutate the slices afterwards.
func NewTable2DFromData(xs, ys, vals []float64) (*Table2D, error) {
	if err := checkAxes(xs, ys); err != nil {
		return nil, err
	}
	if len(vals) != len(xs)*len(ys) {
		return nil, fmt.Errorf("integrate: %d values for a %d×%d table", len(vals), len(xs), len(ys))
	}
	return &Table2D{xs: xs, ys: ys, vals: vals}, nil
}

// Data exposes the table's backing slices (x axis, y axis, row-major
// values) for serialization. The slices are the live internals —
// read-only to callers.
func (t *Table2D) Data() (xs, ys, vals []float64) { return t.xs, t.ys, t.vals }

// searchCell returns the index i with axis[i] <= q < axis[i+1],
// clamped so extrapolation uses the edge cell.
func searchCell(axis []float64, q float64) int {
	lo, hi := 0, len(axis)-2
	if q <= axis[0] {
		return 0
	}
	if q >= axis[len(axis)-1] {
		return hi
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if axis[mid] <= q {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// At returns the bilinear interpolation of the table at (x, y).
// Queries outside the axes are clamped to the table boundary.
func (t *Table2D) At(x, y float64) float64 {
	nx, ny := len(t.xs), len(t.ys)
	i := searchCell(t.xs, x)
	j := searchCell(t.ys, y)
	x0, x1 := t.xs[i], t.xs[i+1]
	y0, y1 := t.ys[j], t.ys[j+1]
	tx := (x - x0) / (x1 - x0)
	ty := (y - y0) / (y1 - y0)
	if tx < 0 {
		tx = 0
	}
	if tx > 1 {
		tx = 1
	}
	if ty < 0 {
		ty = 0
	}
	if ty > 1 {
		ty = 1
	}
	v00 := t.vals[i*ny+j]
	v01 := t.vals[i*ny+j+1]
	v10 := t.vals[(i+1)*ny+j]
	v11 := t.vals[(i+1)*ny+j+1]
	_ = nx
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

// Linspace returns n evenly spaced values from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n == 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
