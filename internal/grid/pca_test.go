package grid

import (
	"context"
	"fmt"
	"math"
	"testing"

	"obdrel/internal/linalg"
)

// oracleModel is testModel with independent die dimensions, so the
// reflection blocks are checked on rectangular dies too.
func oracleModel(t *testing.T, nx, ny int, w, h, rhoDist float64) *Model {
	t.Helper()
	m := testModel(t, nx, ny, rhoDist)
	m.W, m.H = w, h
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBlockPCAMatchesDenseOracle checks the four-block eigensolve
// against a dense EigenSym of the full covariance: same spectrum, the
// same reconstructed covariance, true eigenpairs of the dense matrix,
// and the keep rule honoured.
func TestBlockPCAMatchesDenseOracle(t *testing.T) {
	cases := []struct {
		nx, ny int
		w, h   float64
	}{
		{1, 1, 1, 1},
		{1, 7, 1, 1},
		{7, 1, 2, 0.5},
		{6, 6, 1, 1},
		{7, 7, 1, 1},
		{7, 7, 1.3, 0.8},
		{6, 9, 1, 1.7},
		{25, 25, 1, 1},
	}
	for _, c := range cases {
		m := oracleModel(t, c.nx, c.ny, c.w, c.h, 0.5)
		cov := m.Covariance()
		want, _, err := linalg.EigenSymCtx(context.Background(), cov)
		if err != nil {
			t.Fatal(err)
		}
		lam0 := want[0]
		c00 := cov.At(0, 0)
		for _, keep := range []float64{1, 0.95} {
			p, err := m.ComputePCAWorkers(keep, 3)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx%d die %gx%g keep=%g", c.nx, c.ny, c.w, c.h, keep)
			for k, got := range p.Eigenvalues {
				if d := math.Abs(got - want[k]); d > 1e-12*lam0 {
					t.Errorf("%s: eigenvalue %d = %v, dense %v (|Δ| = %.3g λ₀)", name, k, got, want[k], d/lam0)
				}
				if k > 0 && got > p.Eigenvalues[k-1] {
					t.Errorf("%s: eigenvalues not descending at %d", name, k)
				}
			}
			total := 0.0
			for _, v := range want {
				if v > 0 {
					total += v
				}
			}
			if p.CapturedVariance < keep*total*(1-1e-12) {
				t.Errorf("%s: kept %v of %v total variance", name, p.CapturedVariance, total)
			}
			dense := p.Dense()
			for k := 0; k < p.K; k++ {
				// v = Λ_k/√λ_k must satisfy C·v = λ·v.
				s := math.Sqrt(p.Eigenvalues[k])
				v := make([]float64, dense.Rows)
				for g := range v {
					v[g] = dense.At(g, k) / s
				}
				res := 0.0
				for g := range v {
					cv := 0.0
					for h, x := range v {
						cv += cov.At(g, h) * x
					}
					d := cv - p.Eigenvalues[k]*v[g]
					res += d * d
				}
				if math.Sqrt(res) > 1e-10*lam0 {
					t.Errorf("%s: component %d residual %v > 1e-10·λ₀", name, k, math.Sqrt(res))
				}
			}
			if keep == 1 {
				if d := maxAbsDiff(p.ReconstructCovariance(), cov); d > 1e-12*c00 {
					t.Errorf("%s: reconstruction error %v > 1e-12·C₀₀", name, d)
				}
			}
		}
	}
}

// TestBlockPCAShape pins the block layout at the paper's 25×25 grid:
// 169/156/156/144 basis rows, every kept column accounted for once.
func TestBlockPCAShape(t *testing.T) {
	p, err := testModel(t, 25, 25, 0.5).ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(p.Blocks))
	}
	seen := make([]bool, p.K)
	for b, want := range []int{169, 156, 156, 144} {
		if got := p.blockRows(b); got != want {
			t.Errorf("block %d has %d rows, want %d", b, got, want)
		}
		for c, k := range p.comp[b] {
			if seen[k] {
				t.Fatalf("component %d mapped twice", k)
			}
			seen[k] = true
			if p.Eigenvalues[k] != p.Blocks[b].Eigenvalues[c] {
				t.Fatalf("component %d eigenvalue does not match block %d column %d", k, b, c)
			}
		}
	}
	if dense := int64(8 * 625 * p.K); p.SizeBytes() > dense/3 {
		t.Errorf("block PCA holds %d bytes, dense would hold %d", p.SizeBytes(), dense)
	}
}

// TestNewPCARejectsBadShapes: the decode path must reject a block
// layout that does not fit the grid instead of panicking later.
func TestNewPCARejectsBadShapes(t *testing.T) {
	good := []PCABlock{{Eigenvalues: []float64{1}, Loadings: []float64{1, 2}}}
	if _, err := NewPCA(2, 1, good, 1, 1); err != nil {
		t.Fatalf("valid identity block rejected: %v", err)
	}
	for name, c := range map[string]struct {
		nx, ny int
		blocks []PCABlock
	}{
		"zero grid":       {0, 1, good},
		"huge grid":       {1 << 20, 1, good},
		"rows mismatch":   {3, 1, good},
		"three blocks":    {2, 1, make([]PCABlock, 3)},
		"no components":   {2, 2, make([]PCABlock, 4)},
		"cols on no rows": {1, 1, []PCABlock{{}, {}, {}, {Eigenvalues: []float64{1}}}},
	} {
		if _, err := NewPCA(c.nx, c.ny, c.blocks, 1, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewPCARejectsBadValues: a decoded factor with non-finite or
// negative eigenvalues, non-finite loadings or bad variances would
// make the sampling engines draw NaN, so NewPCA rejects it.
func TestNewPCARejectsBadValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	block := func(eig, load float64) []PCABlock {
		return []PCABlock{{Eigenvalues: []float64{eig}, Loadings: []float64{load, 1}}}
	}
	if _, err := NewPCA(2, 1, block(0, 0), 0, 0); err != nil {
		t.Fatalf("zero eigenvalue, loading and variances rejected: %v", err)
	}
	for name, c := range map[string]struct {
		blocks          []PCABlock
		total, captured float64
	}{
		"NaN eigenvalue":      {block(nan, 1), 1, 1},
		"+Inf eigenvalue":     {block(inf, 1), 1, 1},
		"negative eigenvalue": {block(-1e-300, 1), 1, 1},
		"NaN loading":         {block(1, nan), 1, 1},
		"-Inf loading":        {block(1, -inf), 1, 1},
		"NaN total":           {block(1, 1), nan, 1},
		"+Inf total":          {block(1, 1), inf, 1},
		"negative total":      {block(1, 1), -1, 1},
		"NaN captured":        {block(1, 1), 1, nan},
		"negative captured":   {block(1, 1), 1, -1},
	} {
		if p, err := NewPCA(2, 1, c.blocks, c.total, c.captured); err == nil || p != nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSwapEigenMatchesParityBlocks checks the swap path of square
// grids against the four-block solve: each block's spectrum agrees,
// each block's Σ λ·v·vᵀ reconstructs its parity block, and EO and OE
// share one spectrum bit for bit.
func TestSwapEigenMatchesParityBlocks(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 5, 24, 25} {
		for _, rho := range []float64{0.25, 0.5, 0.75} {
			name := fmt.Sprintf("%dx%d rho=%g", n, n, rho)
			m := testModel(t, n, n, rho)
			table := m.offsetTable()
			if !m.swapSymmetric(table) {
				t.Fatalf("%s: square 1×1 die not swap-symmetric", name)
			}
			wantVals, _, err := m.parityEigen(ctx, table, 2)
			if err != nil {
				t.Fatal(err)
			}
			vals, vecs, err := m.swapEigen(ctx, table, 2)
			if err != nil {
				t.Fatal(err)
			}
			lam0 := wantVals[blockEE][0]
			c00 := table[0]
			for b := 0; b < numParityBlocks; b++ {
				if len(vals[b]) != len(wantVals[b]) {
					t.Fatalf("%s: block %d has %d eigenvalues, want %d", name, b, len(vals[b]), len(wantVals[b]))
				}
				for k, v := range vals[b] {
					if d := math.Abs(v - wantVals[b][k]); d > 1e-13*lam0 {
						t.Errorf("%s: block %d eigenvalue %d = %v, four-block %v (|Δ| = %.3g λ₀)", name, b, k, v, wantVals[b][k], d/lam0)
					}
				}
				blk := m.parityEntries(b, table).block()
				if blk == nil {
					continue
				}
				rows := blk.Rows
				for i := 0; i < rows; i++ {
					for j := 0; j < rows; j++ {
						s := 0.0
						for k, v := range vals[b] {
							s += v * vecs[b].At(i, k) * vecs[b].At(j, k)
						}
						if d := math.Abs(s - blk.At(i, j)); d > 1e-12*c00 {
							t.Fatalf("%s: block %d entry (%d,%d) reconstructs to %v, want %v", name, b, i, j, s, blk.At(i, j))
						}
					}
				}
			}
			if !bitsEqual(vals[blockEO], vals[blockOE]) {
				t.Fatalf("%s: EO spectrum %v, OE %v", name, vals[blockEO], vals[blockOE])
			}
		}
	}
}

// parityBlockReference is the per-entry assembly parityEntries
// replaced, kept as its oracle: it folds both axes afresh for every
// entry of the upper triangle and mirrors it.
func parityBlockReference(m *Model, b int, table []float64) *linalg.Matrix {
	xOdd, yOdd := blockParity(b)
	cx, cy := parityCount(m.Nx, xOdd), parityCount(m.Ny, yOdd)
	rows := cx * cy
	if rows == 0 {
		return nil
	}
	blk := linalg.NewMatrix(rows, rows)
	for r := 0; r < rows; r++ {
		p, q := r%cx, r/cx
		for r2 := r; r2 < rows; r2++ {
			dx, wx, nx := fold1DReference(m.Nx, xOdd, p, r2%cx)
			dy, wy, ny := fold1DReference(m.Ny, yOdd, q, r2/cx)
			v := 0.0
			for a := 0; a < nx; a++ {
				for c := 0; c < ny; c++ {
					v += wx[a] * wy[c] * table[dy[c]*m.Nx+dx[a]]
				}
			}
			blk.Set(r, r2, v)
			blk.Set(r2, r, v)
		}
	}
	return blk
}

func fold1DReference(n int, odd bool, p, q int) (d [2]int, w [2]float64, terms int) {
	mp, mq := 2*p == n-1, 2*q == n-1
	switch {
	case mp && mq:
		return [2]int{0}, [2]float64{1}, 1
	case mp || mq:
		return [2]int{absInt(p - q)}, [2]float64{math.Sqrt2}, 1
	}
	s := 1.0
	if odd {
		s = -1
	}
	return [2]int{absInt(p - q), absInt(p + q - (n - 1))}, [2]float64{1, s}, 2
}

// swapHalfReference projects an assembled c×c parity block onto one
// swap half, the way swapEigen did before each solve assembled its own
// matrix.
func swapHalfReference(a *linalg.Matrix, c int, anti bool) *linalg.Matrix {
	rows, mates := swapMembers(c, anti)
	h := len(rows)
	if h == 0 {
		return nil
	}
	s := 1.0
	if anti {
		s = -1
	}
	out := linalg.NewMatrix(h, h)
	for i, ri := range rows {
		for j := i; j < h; j++ {
			rj := rows[j]
			var v float64
			switch di, dj := ri == mates[i], rj == mates[j]; {
			case di && dj:
				v = a.At(ri, rj)
			case di || dj:
				v = math.Sqrt2 * a.At(ri, rj)
			default:
				v = a.At(ri, rj) + s*a.At(ri, mates[j])
			}
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// TestParityEntriesBitIdenticalToReference pins the tabulated-fold
// assembly to the per-entry one: every entry of every parity block,
// and on the square die of every swap half, matches bit for bit.
func TestParityEntriesBitIdenticalToReference(t *testing.T) {
	sameBits := func(name string, got, want *linalg.Matrix) {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: got matrix %t, reference %t", name, got != nil, want != nil)
		}
		if got == nil {
			return
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: %d×%d, reference %d×%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: entry (%d,%d) = %v, reference %v", name, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
			}
		}
	}
	for _, n := range []int{1, 2, 5, 24, 25} {
		for _, w := range []float64{1, 2} {
			for _, rho := range []float64{0.3, 0.5, 0.71} {
				m := oracleModel(t, n, n, w, 1, rho)
				table := m.offsetTable()
				// A 1×1 grid is swap-symmetric on any die.
				swap := m.swapSymmetric(table)
				if swap != (w == 1 || n == 1) {
					t.Fatalf("%dx%d on a %gx1 die: swapSymmetric = %v", n, n, w, swap)
				}
				for b := 0; b < numParityBlocks; b++ {
					name := fmt.Sprintf("%dx%d die %gx1 rho=%g block %d", n, n, w, rho, b)
					ref := parityBlockReference(m, b, table)
					e := m.parityEntries(b, table)
					sameBits(name, e.block(), ref)
					if !swap || (b != blockEE && b != blockOO) {
						continue
					}
					for _, anti := range []bool{false, true} {
						sameBits(fmt.Sprintf("%s swap half anti=%t", name, anti),
							e.swapHalf(anti), swapHalfReference(ref, e.cx, anti))
					}
				}
			}
		}
	}
}

// TestSwapPCACancelled: a cancelled context stops the swap path's
// solves and surfaces as ctx.Err(), serial or fanned out.
func TestSwapPCACancelled(t *testing.T) {
	m := testModel(t, 25, 25, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 3} {
		if p, err := m.ComputePCACtx(ctx, 1, w); p != nil || err != ctx.Err() {
			t.Fatalf("%d workers: got (%v, %v), want (nil, %v)", w, p, err, ctx.Err())
		}
	}
}

// TestNonSquareTakesParityBlocks: a rectangular grid, or a square grid
// on a rectangular die, has no swap symmetry and keeps the four-block
// solve, while a square grid on a square die takes the swap path.
func TestNonSquareTakesParityBlocks(t *testing.T) {
	for _, c := range []struct {
		nx, ny int
		w, h   float64
		swap   bool
	}{
		{25, 24, 1, 1, false},
		{25, 25, 2, 1, false},
		{25, 25, 1, 1, true},
	} {
		m := oracleModel(t, c.nx, c.ny, c.w, c.h, 0.5)
		if got := m.swapSymmetric(m.offsetTable()); got != c.swap {
			t.Errorf("%dx%d grid on a %gx%g die: swapSymmetric = %v, want %v", c.nx, c.ny, c.w, c.h, got, c.swap)
		}
	}
}

// BenchmarkComputePCA25x25 builds the paper's 25×25 PCA on its square
// die, where the swap path solves five blocks, serially and fanned out
// over GOMAXPROCS workers; die2x1 builds it on a 2×1 die, which has no
// swap symmetry and takes the four-block solve.
func BenchmarkComputePCA25x25(b *testing.B) {
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, _ := VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	for _, bc := range []struct {
		name    string
		w       float64
		workers int
	}{{"serial", 1, 1}, {"workers", 1, 0}, {"die2x1/workers", 2, 0}} {
		m, err := NewModel(2.2, bc.w, 1, 25, 25, sg, ss, se, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.ComputePCAWorkers(1, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Dense returns the n×K loading matrix Λ, column k being component
// k's loading vector over the grids: the dense form the blocks avoid.
func (p *PCA) Dense() *linalg.Matrix {
	d := linalg.NewMatrix(p.Nx*p.Ny, p.K)
	z := make([]float64, p.K)
	for k := range z {
		z[k] = 1
		for g, v := range p.GridShifts(z) {
			d.Set(g, k, v)
		}
		z[k] = 0
	}
	return d
}

// ReconstructCovariance returns Λ·Λᵀ, which approximates the original
// covariance (exactly, when all components are retained).
func (p *PCA) ReconstructCovariance() *linalg.Matrix {
	d := p.Dense()
	n := d.Rows
	c := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < d.Cols; k++ {
				s += d.At(i, k) * d.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// maxAbsDiff returns the largest absolute element-wise difference
// between two matrices of the same shape.
func maxAbsDiff(a, b *linalg.Matrix) float64 {
	max := 0.0
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}
