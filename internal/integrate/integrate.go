// Package integrate supplies the numerical integration and
// interpolation kernels for the reliability engines: the l0×l0
// midpoint rule of the paper's Fig. 9 algorithm, Gauss–Legendre
// quadrature for higher-accuracy cross checks, bilinear lookup tables
// for the hybrid engine (Section IV-E), and monotone curve
// interpolation for quantile extraction.
package integrate

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/par"
)

// Midpoint1D integrates f over [a, b] with n midpoint panels.
func Midpoint1D(f func(float64) float64, a, b float64, n int) float64 {
	if n <= 0 || !(b > a) {
		return 0
	}
	h := (b - a) / float64(n)
	s := 0.0
	for i := 0; i < n; i++ {
		s += f(a + (float64(i)+0.5)*h)
	}
	return s * h
}

// Midpoint2D integrates f over [ax, bx] × [ay, by] with nx×ny midpoint
// sub-domains. With nx = ny = l0 this is exactly the integral-sum
// evaluation in the paper's overall algorithm (Fig. 9, steps 2–8).
func Midpoint2D(f func(x, y float64) float64, ax, bx float64, nx int, ay, by float64, ny int) float64 {
	if nx <= 0 || ny <= 0 || !(bx > ax) || !(by > ay) {
		return 0
	}
	hx := (bx - ax) / float64(nx)
	hy := (by - ay) / float64(ny)
	s := 0.0
	for i := 0; i < nx; i++ {
		x := ax + (float64(i)+0.5)*hx
		for j := 0; j < ny; j++ {
			y := ay + (float64(j)+0.5)*hy
			s += f(x, y)
		}
	}
	return s * hx * hy
}

// GaussLegendre returns the nodes and weights of the n-point
// Gauss–Legendre rule on [-1, 1], computed by Newton iteration on the
// Legendre polynomial (the standard gauleg construction).
func GaussLegendre(n int) (nodes, weights []float64, err error) {
	if n <= 0 {
		return nil, nil, errors.New("integrate: GaussLegendre requires n > 0")
	}
	nodes = make([]float64, n)
	weights = make([]float64, n)
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess: Chebyshev approximation to the i-th root.
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; ; iter++ {
			if iter > 100 {
				return nil, nil, errors.New("integrate: GaussLegendre Newton iteration failed")
			}
			p1, p2 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = ((2*float64(j)+1)*z*p2 - float64(j)*p3) / (float64(j) + 1)
			}
			pp = float64(n) * (z*p1 - p2) / (z*z - 1)
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) < 1e-15 {
				break
			}
		}
		nodes[i] = -z
		nodes[n-1-i] = z
		w := 2 / ((1 - z*z) * pp * pp)
		weights[i] = w
		weights[n-1-i] = w
	}
	return nodes, weights, nil
}

// GaussLegendre1D integrates f over [a, b] with an n-point
// Gauss–Legendre rule.
func GaussLegendre1D(f func(float64) float64, a, b float64, n int) (float64, error) {
	x, w, err := GaussLegendre(n)
	if err != nil {
		return 0, err
	}
	mid := (a + b) / 2
	half := (b - a) / 2
	s := 0.0
	for i := range x {
		s += w[i] * f(mid+half*x[i])
	}
	return s * half, nil
}

// GaussLegendre2D integrates f over [ax,bx]×[ay,by] with an n×n
// tensor-product Gauss–Legendre rule.
func GaussLegendre2D(f func(x, y float64) float64, ax, bx, ay, by float64, n int) (float64, error) {
	x, w, err := GaussLegendre(n)
	if err != nil {
		return 0, err
	}
	midx, halfx := (ax+bx)/2, (bx-ax)/2
	midy, halfy := (ay+by)/2, (by-ay)/2
	s := 0.0
	for i := range x {
		xi := midx + halfx*x[i]
		row := 0.0
		for j := range x {
			row += w[j] * f(xi, midy+halfy*x[j])
		}
		s += w[i] * row
	}
	return s * halfx * halfy, nil
}

// Table2D is a rectilinear lookup table with bilinear interpolation,
// used by the hybrid engine: per-block integral values are tabulated
// over the (ln(t/α), b) plane and queried by interpolation.
type Table2D struct {
	xs, ys []float64 // strictly increasing axes
	vals   []float64 // len(xs)*len(ys), row-major in x
}

// NewTable2D builds a table from strictly increasing axes and a
// fill function evaluated at every grid point.
func NewTable2D(xs, ys []float64, fill func(x, y float64) float64) (*Table2D, error) {
	return NewTable2DWorkers(xs, ys, fill, 1)
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

// NewTable2DWorkers is NewTable2D with the fill fanned out over
// workers (0 = GOMAXPROCS, 1 = serial), one x-row at a time. Every
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

// Size returns the number of stored entries (for reporting table
// memory in the hybrid engine).
func (t *Table2D) Size() (nx, ny int) { return len(t.xs), len(t.ys) }

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

// InterpMonotone linearly interpolates y(xq) given samples (xs, ys)
// with xs strictly increasing. Queries outside the range are clamped
// to the end values. It is used to read quantiles off reliability
// curves, matching the paper's "compute t_req from the PDF curve by
// interpolation".
func InterpMonotone(xs, ys []float64, xq float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, errors.New("integrate: InterpMonotone requires equal-length non-empty slices")
	}
	if len(xs) == 1 {
		return ys[0], nil
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return 0, fmt.Errorf("integrate: x values not strictly increasing at %d", i)
		}
	}
	if xq <= xs[0] {
		return ys[0], nil
	}
	if xq >= xs[len(xs)-1] {
		return ys[len(ys)-1], nil
	}
	i := searchCell(xs, xq)
	f := (xq - xs[i]) / (xs[i+1] - xs[i])
	return ys[i]*(1-f) + ys[i+1]*f, nil
}
