package thermal

import (
	"math"

	"obdrel/internal/floorplan"
)

// Exact solve of the HotSpot-style 5-point system in the cosine basis.
//
// With u = T − T_amb the system is A·u = P, where
//
//	A = gv·I + gl·(I⊗L_x + L_y⊗I)
//
// gv = GVertical/(Nx·Ny) is every cell's vertical conductance, gl the
// lateral link conductance, and L_n the Laplacian of an n-cell path
// with insulated ends (degree-1 end cells). The orthonormal DCT-II
// diagonalizes every L_n exactly: its rows C_n[k][i] = s_k·cos(πk(i+½)/n)
// are the eigenvectors, with eigenvalues λ_k = 4·sin²(πk/2n). Hence
//
//	u = C_yᵀ·[(C_y·P·C_xᵀ) ⊘ (gv + gl·(λ_y[j] + λ_x[k]))]·C_x
//
// — no iteration and no tolerance; the cost is O(Nx·Ny·(Nx+Ny)).
//
// Every block is a rectangle, so its cell-power spread is the outer
// product oy⊗ox of its 1-D overlap vectors, and the spectrum of one
// watt in block j is (C_y·oy_j)⊗(C_x·ox_j) / A_j. The basis serves
// only to build the operator (operator.go): one such load and one
// inverse transform per block.

// spectral is one die bound to the solver's cosine basis: the per-axis
// DCT-II matrices, the operator's eigenvalues and every block's
// transformed overlap vectors.
type spectral struct {
	nx, ny int
	cx, cy []float64 // orthonormal DCT-II matrices, row k = basis vector k
	cyT    []float64 // C_yᵀ, row iy = the basis vectors' entries at iy
	eig    []float64 // operator eigenvalue per mode, row-major (ky, kx)
	blocks []blockModes
}

// blockModes is one block's separable geometry in the cosine basis.
type blockModes struct {
	xhat, yhat []float64 // C_x·ox and C_y·oy
	area       float64   // power-density divisor
	wsum       float64   // Σox·Σoy, the block-mean weight total
}

// newSpectral validates the solver and transforms the die's geometry.
func (s *Solver) newSpectral(d *floorplan.Design) (*spectral, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nx, ny := s.Nx, s.Ny
	m := &spectral{nx: nx, ny: ny}
	var lx, ly []float64
	m.cx, lx = cosineBasis(nx)
	m.cy, ly = cosineBasis(ny)
	m.cyT = make([]float64, ny*ny)
	for k := 0; k < ny; k++ {
		for i := 0; i < ny; i++ {
			m.cyT[i*ny+k] = m.cy[k*ny+i]
		}
	}
	gv := s.GVertical / float64(nx*ny)
	m.eig = make([]float64, nx*ny)
	for ky := 0; ky < ny; ky++ {
		for kx := 0; kx < nx; kx++ {
			m.eig[ky*nx+kx] = gv + s.GLateral*(ly[ky]+lx[kx])
		}
	}
	m.blocks = make([]blockModes, len(d.Blocks))
	cw := d.W / float64(nx)
	ch := d.H / float64(ny)
	for j := range d.Blocks {
		b := &d.Blocks[j]
		xhat, sx := axisModes(m.cx, nx, b.X, b.X+b.W, cw)
		yhat, sy := axisModes(m.cy, ny, b.Y, b.Y+b.H, ch)
		m.blocks[j] = blockModes{xhat: xhat, yhat: yhat, area: b.Area(), wsum: sx * sy}
	}
	return m, nil
}

// cosineBasis returns the n×n orthonormal DCT-II matrix, row k being
// the eigenvector s_k·cos(πk(i+½)/n) of the insulated n-cell path
// Laplacian, and the eigenvalues λ_k = 4·sin²(πk/2n).
func cosineBasis(n int) (c, lambda []float64) {
	// cos(πk(2i+1)/2n) depends only on k(2i+1) mod 4n: tabulate one
	// period, so the table costs O(n) cosines.
	period := make([]float64, 4*n)
	for q := range period {
		period[q] = math.Cos(math.Pi * float64(q) / float64(2*n))
	}
	c = make([]float64, n*n)
	lambda = make([]float64, n)
	for k := 0; k < n; k++ {
		sk := math.Sqrt(2 / float64(n))
		if k == 0 {
			sk = math.Sqrt(1 / float64(n))
		}
		for i := 0; i < n; i++ {
			c[k*n+i] = sk * period[k*(2*i+1)%(4*n)]
		}
		sin := math.Sin(math.Pi * float64(k) / float64(2*n))
		lambda[k] = 4 * sin * sin
	}
	return c, lambda
}

// axisModes returns C·o for the overlap vector o of the interval
// [lo, hi] with the n cells of pitch w, and Σo.
func axisModes(c []float64, n int, lo, hi, w float64) (hat []float64, sum float64) {
	i0, i1 := cellRange(lo, hi, w, n)
	o := make([]float64, i1-i0+1)
	for i := range o {
		o[i] = overlap1D(lo, hi, float64(i0+i)*w, float64(i0+i+1)*w)
		sum += o[i]
	}
	hat = make([]float64, n)
	for k := range hat {
		row := c[k*n+i0 : k*n+i1+1]
		acc := 0.0
		for i, v := range o {
			acc += row[i] * v
		}
		hat[k] = acc
	}
	return hat, sum
}

// unitLoad writes into hat the temperature-rise spectrum of one watt
// in block j: Û_j = (ŷ_j⊗x̂_j / A_j) ⊘ eig.
func (m *spectral) unitLoad(j int, hat []float64) {
	b := &m.blocks[j]
	nx := m.nx
	density := 1 / b.area
	for ky, yv := range b.yhat {
		a := density * yv
		row := hat[ky*nx : (ky+1)*nx]
		eig := m.eig[ky*nx : (ky+1)*nx]
		for kx, xv := range b.xhat {
			row[kx] = a * xv / eig[kx]
		}
	}
}

// inverse transforms a spectrum back to cell rises, u = C_yᵀ·Û·C_x,
// into out (len nx·ny); tmp is scratch of the same length. Both passes
// accumulate from the highest mode down: the smooth low modes carry
// most of the magnitude, so adding them last keeps the partial sums
// small and the rounding an order of magnitude below that of summing
// upwards (TestSpectralSolveResidual).
func (m *spectral) inverse(hat, tmp, out []float64) {
	nx, ny := m.nx, m.ny
	// tmp = Û·C_x, row by row.
	for ky := 0; ky < ny; ky++ {
		combine(tmp[ky*nx:(ky+1)*nx], hat[ky*nx:(ky+1)*nx], m.cx)
	}
	// out = C_yᵀ·tmp, row by row.
	for iy := 0; iy < ny; iy++ {
		combine(out[iy*nx:(iy+1)*nx], m.cyT[iy*ny:(iy+1)*ny], tmp)
	}
}

// combine sets dst = Σ_k a[k]·src_k, where src_k is the k-th
// len(dst)-long row of src, adding the terms from the highest k down
// four rows at a time.
func combine(dst, a, src []float64) {
	n := len(dst)
	clear(dst)
	k := len(a) - 1
	for ; k >= 3; k -= 4 {
		a0, a1, a2, a3 := a[k], a[k-1], a[k-2], a[k-3]
		s0, s1 := src[k*n:(k+1)*n], src[(k-1)*n:k*n]
		s2, s3 := src[(k-2)*n:(k-1)*n], src[(k-3)*n:(k-2)*n]
		s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
		for i := range dst {
			dst[i] += a0*s0[i] + a1*s1[i] + a2*s2[i] + a3*s3[i]
		}
	}
	for ; k >= 0; k-- {
		ak, sk := a[k], src[k*n:(k+1)*n]
		for i, v := range sk {
			dst[i] += ak * v
		}
	}
}
