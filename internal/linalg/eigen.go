package linalg

import (
	"context"
	"errors"
	"math"
	"sort"
)

// EigenSymCtx computes the eigendecomposition of a symmetric matrix a:
// a = V · diag(values) · Vᵀ with orthonormal columns in V. Eigenvalues
// are returned in descending order. The input is not modified. A NaN
// or infinite entry is an error.
//
// The implementation is the classical Householder tridiagonalization
// (tred2) followed by implicit-shift QL iteration (tql2), the same
// pair EISPACK and Numerical Recipes use; it is O(n³) with a small
// constant. Both run on the transposed working matrix, so every
// O(n³) loop walks a contiguous row. The element-wise loops run on
// AVX2 kernels where the CPU has them (kernels.go), and the
// reductions run four rows' sums side by side; both keep every
// operation's order, so the results are the same bits on every path.
// The 156-row EO block, the largest solve of the 25×25 PCA on a
// square die, takes about 5 ms on a 2-vCPU x86-64 host with AVX2.
//
// The outer Householder and QL loops are cancellation checkpoints:
// once ctx expires the decomposition stops and returns ctx's error.
// Checkpoint granularity is one outer-loop row, i.e. O(n²) work
// between checks.
func EigenSymCtx(ctx context.Context, a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSymCtx requires a square matrix")
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, errors.New("linalg: EigenSymCtx requires finite entries")
		}
	}
	if !a.IsSymmetric(1e-9 * (1 + maxAbs(a))) {
		return nil, nil, errors.New("linalg: EigenSymCtx requires a symmetric matrix")
	}
	n := a.Rows
	// w = vᵀ, where v is the working matrix of the row-major JAMA
	// code: w(i,j) = a(j,i). Transposing (not cloning) keeps the
	// triangle the algorithm reads the same for inputs that are only
	// symmetric within the tolerance above.
	w := a.Transpose()
	d := make([]float64, n)
	e := make([]float64, n)
	if err := tred2(ctx, w, d, e); err != nil {
		return nil, nil, err
	}
	if err := tql2(ctx, w, d, e); err != nil {
		return nil, nil, err
	}
	// Sort eigenpairs by descending eigenvalue. Eigenvector k is row
	// k of w.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for newCol, oldRow := range idx {
		values[newCol] = d[oldRow]
		for r, x := range w.Row(oldRow) {
			vectors.Data[r*n+newCol] = x
		}
	}
	return values, vectors, nil
}

func maxAbs(a *Matrix) float64 {
	m := 0.0
	for _, x := range a.Data {
		if ax := math.Abs(x); ax > m {
			m = ax
		}
	}
	return m
}

// tred2 reduces the symmetric matrix to tridiagonal form by
// Householder similarity transformations, accumulating the
// transformations. On return d holds the diagonal and e the
// subdiagonal (e[0] unused).
//
// w holds vᵀ, the transpose of the JAMA/EISPACK working matrix v:
// every v(r,c) of that code is w(c,r) here, and the floating-point
// operations run in its order, so the results are bit-identical. The
// inner loops that walk a column of v (k varying in v(k,j)) walk row j
// of w, contiguously.
func tred2(ctx context.Context, w *Matrix, d, e []float64) error {
	n := w.Rows
	for j := 0; j < n; j++ {
		d[j] = w.At(j, n-1)
	}
	for i := n - 1; i > 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		scale, h := 0.0, 0.0
		if i > 1 {
			for k := 0; k < i; k++ {
				scale += math.Abs(d[k])
			}
		}
		wi := w.Row(i)
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w.At(j, i-1)
				w.Set(j, i, 0)
				wi[j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			dk, ek := d[:i], e[:i]
			// Four rows at a time: their ek updates run first, in row
			// order, so every ek[k] takes its additions in the one-row
			// order and e[j+1..j+3] hold what that order reads; then the
			// four g sums run side by side, each in its own k order.
			j := 0
			for ; j+4 <= i; j += 4 {
				w0, w1, w2, w3 := w.Row(j), w.Row(j+1), w.Row(j+2), w.Row(j+3)
				w0, w1, w2, w3 = w0[:i], w1[:i], w2[:i], w3[:i]
				f0, f1, f2, f3 := d[j], d[j+1], d[j+2], d[j+3]
				wi[j], wi[j+1], wi[j+2], wi[j+3] = f0, f1, f2, f3
				addScaled(ek[j+1:], w0[j+1:], f0)
				addScaled(ek[j+2:], w1[j+2:], f1)
				addScaled(ek[j+3:], w2[j+3:], f2)
				addScaled(ek[j+4:], w3[j+4:], f3)
				g0 := e[j] + w0[j]*f0 + w0[j+1]*dk[j+1] + w0[j+2]*dk[j+2] + w0[j+3]*dk[j+3]
				g1 := e[j+1] + w1[j+1]*f1 + w1[j+2]*dk[j+2] + w1[j+3]*dk[j+3]
				g2 := e[j+2] + w2[j+2]*f2 + w2[j+3]*dk[j+3]
				g3 := e[j+3] + w3[j+3]*f3
				for k := j + 4; k < i; k++ {
					x := dk[k]
					g0 += w0[k] * x
					g1 += w1[k] * x
					g2 += w2[k] * x
					g3 += w3[k] * x
				}
				e[j], e[j+1], e[j+2], e[j+3] = g0, g1, g2, g3
			}
			for ; j < i; j++ {
				f = d[j]
				wi[j] = f
				wj := w.Row(j)[:i]
				addScaled(ek[j+1:], wj[j+1:], f)
				g = e[j] + wj[j]*f
				for k := j + 1; k < i; k++ {
					g += wj[k] * dk[k]
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				wj := w.Row(j)[:i]
				subScaled2(wj[j:], ek[j:], dk[j:], d[j], e[j])
				d[j] = wj[i-1]
				w.Set(j, i, 0)
			}
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w.Set(i, n-1, w.At(i, i))
		w.Set(i, i, 1)
		h := d[i+1]
		wi1 := w.Row(i + 1)[:i+1]
		if h != 0 {
			dk := d[:i+1]
			for k, x := range wi1 {
				dk[k] = x / h
			}
			// The rows are independent: four dot products run side by
			// side, each in k order, before their rows are updated.
			j := 0
			for ; j+4 <= i+1; j += 4 {
				w0, w1, w2, w3 := w.Row(j), w.Row(j+1), w.Row(j+2), w.Row(j+3)
				w0, w1, w2, w3 = w0[:i+1], w1[:i+1], w2[:i+1], w3[:i+1]
				g0, g1, g2, g3 := 0.0, 0.0, 0.0, 0.0
				for k, x := range wi1 {
					g0 += x * w0[k]
					g1 += x * w1[k]
					g2 += x * w2[k]
					g3 += x * w3[k]
				}
				subScaled(w0, dk, g0)
				subScaled(w1, dk, g1)
				subScaled(w2, dk, g2)
				subScaled(w3, dk, g3)
			}
			for ; j <= i; j++ {
				wj := w.Row(j)[:i+1]
				g := 0.0
				for k, x := range wi1 {
					g += x * wj[k]
				}
				subScaled(wj, dk, g)
			}
		}
		for k := range wi1 {
			wi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = w.At(j, n-1)
		w.Set(j, n-1, 0)
	}
	w.Set(n-1, n-1, 1)
	e[0] = 0
	return nil
}

// tql2 diagonalizes the tridiagonal matrix (d, e) by implicit-shift QL
// iteration, accumulating eigenvectors into the rows of w (w = vᵀ, as
// in tred2): the plane rotation of v's columns i and i+1 is a rotation
// of w's contiguous rows i and i+1. Two consecutive rotations of a
// sweep share one pass over three rows (rotate2); every element sees
// the same operations in the same order, so the result is
// bit-identical to rotating one pair of rows at a time.
func tql2(ctx context.Context, w *Matrix, d, e []float64) error {
	n := w.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	f, tst1 := 0.0, 0.0
	const eps = 2.220446049250313e-16
	for l := 0; l < n; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		// e[n-1] is 0, so a finite tst1 stops the scan by n-1; a NaN
		// one must not run it past the end.
		m := l
		for m < n-1 {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 100 {
					return errors.New("linalg: QL iteration did not converge")
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				// The rotation of rows i and i+1 waits for the next
				// step's, of rows i-1 and i, and rotate2 applies both
				// in one pass. The rows never feed back into d or e,
				// so the delay is exact.
				pending := false
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					if pending {
						rotate2(w.Row(i), w.Row(i+1), w.Row(i+2), c, s, c2, s2)
					}
					pending = !pending
				}
				if pending {
					rotate(w.Row(l), w.Row(l+1), c, s)
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
