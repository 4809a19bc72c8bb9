package thermal

import (
	"fmt"
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
// Every block is a rectangle, so its cell-power spread and its
// block-mean weights are both the outer product oy⊗ox of its 1-D
// overlap vectors. The spectrum of the cell power is therefore
// Σ_j (p_j/A_j)·(C_y·oy_j)⊗(C_x·ox_j), and a block's mean rise is the
// bilinear form (C_y·oy_j)ᵀ·Û·(C_x·ox_j) / (Σoy_j·Σox_j). The coupled
// power↔temperature rounds run entirely in that basis at O(B·Nx·Ny)
// per round; only the final field is transformed back.

// spectral is one die bound to the solver's cosine basis: the per-axis
// DCT-II matrices, the operator's eigenvalues, every block's
// transformed overlap vectors, and the temperature-rise spectrum of
// the last loaded powers.
type spectral struct {
	s      *Solver
	d      *floorplan.Design
	nx, ny int
	cx, cy []float64 // orthonormal DCT-II matrices, row k = basis vector k
	eig    []float64 // operator eigenvalue per mode, row-major (ky, kx)
	blocks []blockModes
	hat    []float64 // temperature-rise spectrum Û, row-major (ky, kx)
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
	m := &spectral{s: s, d: d, nx: nx, ny: ny}
	var lx, ly []float64
	m.cx, lx = cosineBasis(nx)
	m.cy, ly = cosineBasis(ny)
	gv := s.GVertical / float64(nx*ny)
	m.eig = make([]float64, nx*ny)
	for ky := 0; ky < ny; ky++ {
		for kx := 0; kx < nx; kx++ {
			m.eig[ky*nx+kx] = gv + s.GLateral*(ly[ky]+lx[kx])
		}
	}
	m.hat = make([]float64, nx*ny)
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

// load sets the temperature-rise spectrum for the given block powers:
// Û = (Σ_j (p_j/A_j)·ŷ_j⊗x̂_j) ⊘ eig.
func (m *spectral) load(blockPowers []float64) error {
	if len(blockPowers) != len(m.blocks) {
		return fmt.Errorf("thermal: %d powers for %d blocks", len(blockPowers), len(m.blocks))
	}
	for j, p := range blockPowers {
		if p < 0 {
			return fmt.Errorf("thermal: negative power for block %q", m.d.Blocks[j].Name)
		}
	}
	nx := m.nx
	clear(m.hat)
	for j := range m.blocks {
		b := &m.blocks[j]
		if b.wsum == 0 {
			continue // overlaps no cell: injects nothing
		}
		density := blockPowers[j] / b.area
		for ky, yv := range b.yhat {
			a := density * yv
			row := m.hat[ky*nx : (ky+1)*nx]
			row = row[:len(b.xhat)]
			for kx, xv := range b.xhat {
				row[kx] += a * xv
			}
		}
	}
	for i, e := range m.eig {
		m.hat[i] /= e
	}
	return nil
}

// blockMeans writes every block's area-weighted mean temperature under
// the loaded spectrum, without building the field.
func (m *spectral) blockMeans(mean []float64) error {
	nx := m.nx
	for j := range m.blocks {
		b := &m.blocks[j]
		if b.wsum == 0 {
			return fmt.Errorf("thermal: block %q overlaps no thermal cells", m.d.Blocks[j].Name)
		}
		acc := 0.0
		for ky, yv := range b.yhat {
			row := m.hat[ky*nx : (ky+1)*nx]
			row = row[:len(b.xhat)]
			r := 0.0
			for kx, xv := range b.xhat {
				r += row[kx] * xv
			}
			acc += yv * r
		}
		mean[j] = m.s.TAmbient + acc/b.wsum
	}
	return nil
}

// field transforms the loaded spectrum back to cell temperatures:
// T = T_amb + C_yᵀ·Û·C_x. Both passes accumulate from the highest mode
// down: the smooth low modes carry most of the magnitude, so adding
// them last keeps the partial sums small and the rounding an order of
// magnitude below that of summing upwards (TestSpectralSolveResidual).
func (m *spectral) field() *Field {
	nx, ny := m.nx, m.ny
	// tmp = Û·C_x, accumulated row by row.
	tmp := make([]float64, nx*ny)
	for ky := 0; ky < ny; ky++ {
		out := tmp[ky*nx : (ky+1)*nx]
		for kx := nx - 1; kx >= 0; kx-- {
			h := m.hat[ky*nx+kx]
			basis := m.cx[kx*nx : (kx+1)*nx]
			basis = basis[:len(out)]
			for ix, c := range basis {
				out[ix] += h * c
			}
		}
	}
	// temps = C_yᵀ·tmp.
	temps := make([]float64, nx*ny)
	for ky := ny - 1; ky >= 0; ky-- {
		in := tmp[ky*nx : (ky+1)*nx]
		for iy, c := range m.cy[ky*ny : (ky+1)*ny] {
			out := temps[iy*nx : (iy+1)*nx]
			out = out[:len(in)]
			for ix, v := range in {
				out[ix] += c * v
			}
		}
	}
	for i := range temps {
		temps[i] += m.s.TAmbient
	}
	return &Field{
		Nx: nx, Ny: ny,
		W: m.d.W, H: m.d.H,
		Temps:      temps,
		Iterations: 1,
	}
}
