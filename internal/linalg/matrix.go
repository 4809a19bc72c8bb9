// Package linalg provides the small dense linear-algebra kernel the
// reliability analysis needs: a row-major matrix and the symmetric
// eigendecomposition (Householder tridiagonalization followed by
// implicit-shift QL).
//
// The package is deliberately minimal. The spatial-correlation PCA
// never hands it the full n×n grid covariance: internal/grid splits
// that matrix into four reflection-symmetry blocks of about n/4 rows,
// and on square grids splits two of those again by the x↔y swap and
// derives a third from the fourth, so the largest solve at the
// paper's 25×25 grid has 156 rows (169 on a rectangular die). Each is
// solved with EigenSymCtx, a dense solver that is bit-identical to the
// row-major JAMA/EISPACK code it ports, so that code is its test
// oracle. It stores its working matrix transposed (vᵀ), so its O(n³)
// loops walk contiguous rows; on amd64 CPUs with AVX2 the element-wise
// ones run on assembly kernels that keep every operation's order
// (kernels_amd64.s), and elsewhere on the same loops in Go.
package linalg

import (
	"fmt"
	"math"
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

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

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
