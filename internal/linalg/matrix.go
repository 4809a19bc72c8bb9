// Package linalg provides the small dense linear-algebra kernel the
// reliability analysis needs: symmetric matrices, Cholesky
// factorization, and symmetric eigendecomposition (Householder
// tridiagonalization followed by implicit-shift QL, with a cyclic
// Jacobi fallback used for cross-checking).
//
// The package is deliberately minimal. The spatial-correlation PCA
// never hands it the full n×n grid covariance: internal/grid splits
// that matrix into four reflection-symmetry blocks of about n/4 rows
// (169 at most for the paper's 25×25 grid) and solves each with
// EigenSymCtx, so a straightforward dense implementation is both
// sufficient and easy to verify. The eigensolver stores its working
// matrix transposed (vᵀ), so its O(n³) loops walk contiguous rows, and
// it is bit-identical to the row-major JAMA/EISPACK code it ports.
// Dense EigenSym of the whole covariance and JacobiEigenSym remain as
// the test oracles for that block decomposition.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/par"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major data. The slice is
// copied.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %d×%d", len(data), r, c))
	}
	m := NewMatrix(r, c)
	copy(m.Data, data)
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return NewMatrixFrom(m.Rows, m.Cols, m.Data)
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m · b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	return m.MulWorkers(b, 1)
}

// MulWorkers returns m · b with the output rows fanned out over
// workers (0 = GOMAXPROCS, 1 = serial). Each output row is computed
// independently in a fixed order, so the product is bit-identical for
// every worker count.
func (m *Matrix) MulWorkers(b *Matrix, workers int) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	par.For(workers, m.Rows, func(i int) {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	})
	return out
}

// MulVec returns m · v as a new slice.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto computes m · v into dst (len m.Rows), avoiding the
// allocation of MulVec on hot paths.
func (m *Matrix) MulVecInto(dst, v []float64) {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d×%d · %d", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecInto dst length %d for %d rows", len(dst), m.Rows))
	}
	for i := range dst {
		ri := m.Row(i)
		s := 0.0
		for j, x := range v {
			s += ri[j] * x
		}
		dst[i] = s
	}
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between m and b, useful in tests.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// ErrNotPositiveDefinite reports a Cholesky failure.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = a for a
// symmetric positive-definite a. The strictly upper triangle of the
// result is zero. jitter, if positive, is added to the diagonal before
// factorization, which regularizes covariance matrices that are
// positive semi-definite up to rounding.
func Cholesky(a *Matrix, jitter float64) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}
