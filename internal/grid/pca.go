package grid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"obdrel/internal/linalg"
	"obdrel/internal/par"
)

// PCA is the canonical-form factorization x = Λ·z of the correlated
// thickness component (Eq. 2), stored block-wise.
//
// The exponential-decay covariance depends only on |Δix| and |Δiy|,
// so it commutes with the die's two reflections ix → Nx-1-ix and
// iy → Ny-1-iy, for every Nx, Ny, W and H. Their joint eigenspaces
// split the grid vectors by parity under each reflection, and in that
// even/odd basis the covariance is block diagonal with four blocks —
// EE, EO, OE, OO, first letter the x parity — of about n/4 rows each
// (169/156/156/144 at 25×25). Each block is eigendecomposed on its
// own; on a square grid whose covariance is also symmetric under the
// x↔y swap, EE and OO are solved as two swap halves each and OE is
// EO with its rows permuted (see swapEigen). Λ is kept in the block
// form either way: per block, the retained eigenvector columns in the
// block's basis, scaled by √λ. That is about a quarter of the dense
// n×K bytes; GridShifts maps back to grids on the fly.
//
// The quad-tree factor is exact by construction and has no such
// symmetry to exploit; it is stored as a single block in the identity
// basis (row i = grid i), so both structures share this one type.
type PCA struct {
	// Nx, Ny are the grid resolution the factor covers.
	Nx, Ny int
	// Blocks holds the four reflection-parity blocks (EE, EO, OE, OO)
	// or, for the quad-tree factor, one identity-basis block. The
	// basis of each block is implied by Nx, Ny and the block count.
	Blocks []PCABlock
	// Eigenvalues holds the retained eigenvalues in component order:
	// the blocks' columns merged by descending eigenvalue, ties broken
	// by block and then by column. Component k is z_k of Eq. 2.
	Eigenvalues []float64
	// K is the number of retained components.
	K int
	// TotalVariance is the trace of the covariance matrix;
	// CapturedVariance is the sum of retained eigenvalues.
	TotalVariance, CapturedVariance float64

	// comp[b][c] is the component index of block b's column c.
	comp [][]int
}

// PCABlock is one block of the factor.
type PCABlock struct {
	// Eigenvalues of the retained columns (descending for the
	// reflection blocks; per-column variances for the quad-tree
	// factor, in column order).
	Eigenvalues []float64
	// Loadings is rows×len(Eigenvalues), row-major: column c is the
	// block's c-th eigenvector in the block basis, scaled by √λ_c.
	Loadings []float64
}

// Reflection-parity blocks, first letter the x parity.
const (
	blockEE = iota
	blockEO
	blockOE
	blockOO
	numParityBlocks
)

// parityCount is the dimension of the even (odd=false) or odd
// reflection subspace over n points: basis member p pairs point p with
// its mirror n-1-p, and for odd n the even subspace also holds the
// middle point alone.
func parityCount(n int, odd bool) int {
	if odd {
		return n / 2
	}
	return (n + 1) / 2
}

// blockParity returns block b's x and y parities.
func blockParity(b int) (xOdd, yOdd bool) {
	return b == blockOE || b == blockOO, b == blockEO || b == blockOO
}

// NewPCA assembles a factor from its blocks and checks their shapes
// against the grid and their values: eigenvalues and the two variances
// must be finite and non-negative, loadings finite. It derives the
// component order, K and the merged Eigenvalues; the codec uses it to
// rebuild a decoded PCA.
func NewPCA(nx, ny int, blocks []PCABlock, total, captured float64) (*PCA, error) {
	const maxSide = 1 << 16
	if nx <= 0 || ny <= 0 || nx > maxSide || ny > maxSide {
		return nil, fmt.Errorf("grid: pca grid %d×%d out of range", nx, ny)
	}
	if len(blocks) != 1 && len(blocks) != numParityBlocks {
		return nil, fmt.Errorf("grid: pca has %d blocks, want 1 or %d", len(blocks), numParityBlocks)
	}
	if !finiteNonNegative(total) || !finiteNonNegative(captured) {
		return nil, fmt.Errorf("grid: pca variances total=%v captured=%v, want finite and non-negative", total, captured)
	}
	p := &PCA{Nx: nx, Ny: ny, Blocks: blocks, TotalVariance: total, CapturedVariance: captured}
	for b, blk := range blocks {
		rows, cols := p.blockRows(b), len(blk.Eigenvalues)
		if cols > 0 && rows == 0 || rows*cols != len(blk.Loadings) {
			return nil, fmt.Errorf("grid: pca block %d holds %d loadings for %d×%d", b, len(blk.Loadings), rows, cols)
		}
		for c, v := range blk.Eigenvalues {
			if !finiteNonNegative(v) {
				return nil, fmt.Errorf("grid: pca block %d eigenvalue %d is %v, want finite and non-negative", b, c, v)
			}
		}
		for i, v := range blk.Loadings {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("grid: pca block %d loading %d is %v", b, i, v)
			}
		}
	}
	spectra := make([][]float64, len(blocks))
	for b := range blocks {
		spectra[b] = blocks[b].Eigenvalues
	}
	p.Eigenvalues, p.comp = mergeSpectra(spectra)
	p.K = len(p.Eigenvalues)
	if p.K == 0 {
		return nil, errors.New("grid: pca retains no components")
	}
	return p, nil
}

func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// blockRows returns the row count of block b.
func (p *PCA) blockRows(b int) int {
	if len(p.Blocks) == 1 {
		return p.Nx * p.Ny
	}
	xOdd, yOdd := blockParity(b)
	return parityCount(p.Nx, xOdd) * parityCount(p.Ny, yOdd)
}

// mergeSpectra merges the blocks' spectra into one component order: a
// k-way merge taking the largest head eigenvalue, ties to the lower
// block. Within a block, columns keep their order, so a single block
// maps column c to component c. It returns the merged eigenvalues and
// each column's component index.
func mergeSpectra(spectra [][]float64) (vals []float64, comp [][]int) {
	total := 0
	comp = make([][]int, len(spectra))
	for b, s := range spectra {
		total += len(s)
		comp[b] = make([]int, len(s))
	}
	vals = make([]float64, 0, total)
	head := make([]int, len(spectra))
	for len(vals) < total {
		best := -1
		for b, s := range spectra {
			if head[b] < len(s) && (best < 0 || s[head[b]] > spectra[best][head[best]]) {
				best = b
			}
		}
		comp[best][head[best]] = len(vals)
		vals = append(vals, spectra[best][head[best]])
		head[best]++
	}
	return vals, comp
}

// SizeBytes reports the factor's retained memory, which the stage
// cache charges against its byte budget.
func (p *PCA) SizeBytes() int64 {
	n := 2 * len(p.Eigenvalues) // merged eigenvalues + component indices
	for _, blk := range p.Blocks {
		n += len(blk.Eigenvalues) + len(blk.Loadings)
	}
	return 8 * int64(n)
}

// ComputePCA returns the canonical-form factorization x = Λ·z of the
// correlated component. For StructExpDecay this eigendecomposes the
// covariance's reflection blocks (Λ = V·√D), retaining
// components until keepFraction of the total variance is captured
// (pass 1 to keep everything above numerical noise). For
// StructQuadTree the factor is exact by construction (one component
// per region) and keepFraction is ignored beyond validation.
func (m *Model) ComputePCA(keepFraction float64) (*PCA, error) {
	return m.ComputePCAWorkers(keepFraction, 1)
}

// ComputePCAWorkers is ComputePCA with the block eigensolves fanned
// out over workers. The solves are independent, so the PCA is
// bit-identical for every worker count.
func (m *Model) ComputePCAWorkers(keepFraction float64, workers int) (*PCA, error) {
	return m.ComputePCACtx(context.Background(), keepFraction, workers)
}

// ComputePCACtx is ComputePCAWorkers with cancellation checkpoints
// before each block and inside the eigensolver's outer loops.
func (m *Model) ComputePCACtx(ctx context.Context, keepFraction float64, workers int) (*PCA, error) {
	if !(keepFraction > 0) || keepFraction > 1 {
		return nil, fmt.Errorf("grid: keepFraction must be in (0,1], got %v", keepFraction)
	}
	if m.Structure == StructQuadTree {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return m.quadTreeFactor()
	}
	table := m.offsetTable()
	solve := m.parityEigen
	if m.swapSymmetric(table) {
		solve = m.swapEigen
	}
	vals, vecs, err := solve(ctx, table, workers)
	if err != nil {
		return nil, err
	}
	merged, comp := mergeSpectra(vals)
	total := 0.0
	for _, v := range merged {
		if v > 0 {
			total += v
		}
	}
	// Retain enough components for keepFraction of variance, always
	// discarding numerically negative/negligible eigenvalues.
	floor := 1e-12 * merged[0]
	k := 0
	captured := 0.0
	for k < len(merged) && merged[k] > floor {
		captured += merged[k]
		k++
		if captured >= keepFraction*total-1e-15*total {
			break
		}
	}
	if k == 0 {
		return nil, errors.New("grid: covariance matrix has no positive eigenvalues")
	}
	// The merge takes each block's columns in order, so the first k
	// components are a prefix of every block.
	blocks := make([]PCABlock, numParityBlocks)
	for b := range blocks {
		kept := 0
		for kept < len(comp[b]) && comp[b][kept] < k {
			kept++
		}
		if kept == 0 {
			continue
		}
		rows := vecs[b].Rows
		blk := PCABlock{
			Eigenvalues: append([]float64(nil), vals[b][:kept]...),
			Loadings:    make([]float64, rows*kept),
		}
		for c := 0; c < kept; c++ {
			s := math.Sqrt(vals[b][c])
			for r := 0; r < rows; r++ {
				blk.Loadings[r*kept+c] = vecs[b].At(r, c) * s
			}
		}
		blocks[b] = blk
	}
	return NewPCA(m.Nx, m.Ny, blocks, total, captured)
}

// offsetTable tabulates the covariance by grid offset, table[dy·Nx+dx]
// = cov at offset (dx, dy), from the model's own entry expression: the
// exponential-decay covariance depends on (|Δix|, |Δiy|) only.
func (m *Model) offsetTable() []float64 {
	kern := m.kernel()
	table := make([]float64, m.NumGrids())
	for g := range table {
		table[g] = kern(0, g)
	}
	return table
}

// parityEigen eigendecomposes the covariance's four reflection-parity
// blocks from the offset table, fanned out over workers. vals[b] and
// vecs[b] are block b's spectrum (descending) and eigenvectors in the
// block basis; an empty block leaves both nil.
func (m *Model) parityEigen(ctx context.Context, table []float64, workers int) ([][]float64, []*linalg.Matrix, error) {
	return eigenAll(ctx, workers, numParityBlocks, func(b int) *linalg.Matrix {
		return m.parityEntries(b, table).block()
	})
}

// swapSymmetric reports whether the offset table is symmetric under
// the x↔y swap bit for bit: a square grid whose covariance at offset
// (dx, dy) is the one at (dy, dx). The swap then commutes with the
// covariance and swapEigen applies.
func (m *Model) swapSymmetric(table []float64) bool {
	if m.Nx != m.Ny {
		return false
	}
	n := m.Nx
	for dy := 0; dy < n; dy++ {
		for dx := 0; dx < dy; dx++ {
			if math.Float64bits(table[dy*n+dx]) != math.Float64bits(table[dx*n+dy]) {
				return false
			}
		}
	}
	return true
}

// swapEigen is parityEigen for a swap-symmetric table. The swap
// (ix, iy) → (iy, ix) maps basis member (p, q) of EE or OO to (q, p)
// of the same block, and member (p, q) of EO to (q, p) of OE. So EE
// and OO each split into a swap-symmetric and a swap-antisymmetric
// half (91 + 78 and 78 + 66 rows at 25×25), and OE is EO with its rows
// permuted and the same spectrum. The five solves, EO's 156 rows the
// largest, take about a third of the four blocks' flops. Each solve
// assembles its own matrix from the offset table inside its worker, so
// no parity block is built serially before the fan-out.
func (m *Model) swapEigen(ctx context.Context, table []float64, workers int) ([][]float64, []*linalg.Matrix, error) {
	ce, co := parityCount(m.Nx, false), parityCount(m.Nx, true)
	ee, eo, oo := m.parityEntries(blockEE, table), m.parityEntries(blockEO, table), m.parityEntries(blockOO, table)
	// EO, the largest solve, goes first so that it starts at once.
	solves := []func() *linalg.Matrix{
		eo.block,
		func() *linalg.Matrix { return ee.swapHalf(false) },
		func() *linalg.Matrix { return ee.swapHalf(true) },
		func() *linalg.Matrix { return oo.swapHalf(false) },
		func() *linalg.Matrix { return oo.swapHalf(true) },
	}
	hv, hx, err := eigenAll(ctx, workers, len(solves), func(i int) *linalg.Matrix { return solves[i]() })
	if err != nil {
		return nil, nil, err
	}
	vals := make([][]float64, numParityBlocks)
	vecs := make([]*linalg.Matrix, numParityBlocks)
	vals[blockEO], vecs[blockEO] = hv[0], hx[0]
	vals[blockOE], vecs[blockOE] = hv[0], swapRows(hx[0], ce, co)
	vals[blockEE], vecs[blockEE] = swapLift(ce, hv[1:3], hx[1:3])
	vals[blockOO], vecs[blockOO] = swapLift(co, hv[3:5], hx[3:5])
	return vals, vecs, nil
}

// eigenAll eigendecomposes build(i) for every i < n, fanned out over
// workers; a nil matrix leaves its slot empty. The solves are
// independent, so the result is bit-identical for every worker count.
func eigenAll(ctx context.Context, workers, n int, build func(i int) *linalg.Matrix) ([][]float64, []*linalg.Matrix, error) {
	vals := make([][]float64, n)
	vecs := make([]*linalg.Matrix, n)
	errs := make([]error, n)
	if err := par.ForCtx(ctx, workers, n, func(i int) {
		if a := build(i); a != nil {
			vals[i], vecs[i], errs[i] = linalg.EigenSymCtx(ctx, a)
		}
	}); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, fmt.Errorf("grid: covariance eigendecomposition: %w", err)
	}
	return vals, vecs, nil
}

// swapMembers lists the swap-symmetric (anti false) or antisymmetric
// half's basis of a c×c parity block of a square grid. Member (p, q),
// p ≤ q (p < q for the antisymmetric half), combines block row
// p + q·c with its swap image q + p·c as (e_row ± e_mate)/√2; a
// diagonal member (p = q, symmetric half only) is e_row alone, with
// mate = row.
func swapMembers(c int, anti bool) (rows, mates []int) {
	for q := 0; q < c; q++ {
		for p := 0; p < q || p == q && !anti; p++ {
			rows = append(rows, p+q*c)
			mates = append(mates, q+p*c)
		}
	}
	return rows, mates
}

// swapHalf projects the c×c parity block e of a square grid onto one
// swap half's basis, or returns nil for an empty half. With the block
// A commuting with the swap σ, entry (a, b) is A[a,b] ± A[a,σb] for two
// paired members, √2·A[a,b] for one diagonal member and A[a,b] for two.
func (e *parityEntries) swapHalf(anti bool) *linalg.Matrix {
	rows, mates := swapMembers(e.cx, anti)
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
				v = e.at(ri, rj)
			case di || dj:
				v = math.Sqrt2 * e.at(ri, rj)
			default:
				v = e.at(ri, rj) + s*e.at(ri, mates[j])
			}
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// swapLift maps a c×c parity block's two swap halves (symmetric
// first) back to the block basis: a half's eigenvector y becomes
// (y, ±y)/√2 on a paired member's row and mate, and y on a diagonal
// member's row. The halves' spectra merge in descending order, ties
// to the symmetric half.
func swapLift(c int, vals [][]float64, vecs []*linalg.Matrix) ([]float64, *linalg.Matrix) {
	if c == 0 {
		return nil, nil
	}
	merged, comp := mergeSpectra(vals)
	out := linalg.NewMatrix(c*c, len(merged))
	for h, anti := range []bool{false, true} {
		if vecs[h] == nil {
			continue
		}
		s := 1.0
		if anti {
			s = -1
		}
		rows, mates := swapMembers(c, anti)
		for i, r := range rows {
			for col, k := range comp[h] {
				y := vecs[h].At(i, col)
				if r == mates[i] {
					out.Set(r, k, y)
					continue
				}
				y *= math.Sqrt2 / 2
				out.Set(r, k, y)
				out.Set(mates[i], k, s*y)
			}
		}
	}
	return merged, out
}

// swapRows maps EO's eigenvectors to OE's: the swap takes EO row
// p + q·ce to OE row q + p·co.
func swapRows(eo *linalg.Matrix, ce, co int) *linalg.Matrix {
	if eo == nil {
		return nil
	}
	oe := linalg.NewMatrix(eo.Rows, eo.Cols)
	for q := 0; q < co; q++ {
		for p := 0; p < ce; p++ {
			copy(oe.Row(q+p*co), eo.Row(p+q*ce))
		}
	}
	return oe
}

// fold is one term list of the 1D reflection fold: for basis members
// p, q of one parity over n points and any f,
//
//	Σ_{i,i'} u_p(i)·u_q(i')·f(|i-i'|) = Σ_{t<terms} w[t]·f(d[t]).
type fold struct {
	d     [2]int
	w     [2]float64
	terms int
}

// fold1D returns the fold of members p and q. A paired member is
// (e_p ± e_{n-1-p})/√2, the middle one (even parity, odd n) is e_p,
// and the mirror identity |p̄-q̄| = |p-q| folds the four point pairs
// into at most two distances. The fold is symmetric in p and q, bit
// for bit.
func fold1D(n int, odd bool, p, q int) fold {
	mp, mq := 2*p == n-1, 2*q == n-1
	switch {
	case mp && mq:
		return fold{d: [2]int{0}, w: [2]float64{1}, terms: 1}
	case mp || mq:
		return fold{d: [2]int{absInt(p - q)}, w: [2]float64{math.Sqrt2}, terms: 1}
	}
	s := 1.0
	if odd {
		s = -1
	}
	return fold{d: [2]int{absInt(p - q), absInt(p + q - (n - 1))}, w: [2]float64{1, s}, terms: 2}
}

// foldTable tabulates fold1D for every pair of the c members of one
// parity over n points: entry p·c+q is the fold of p and q.
func foldTable(n int, odd bool) []fold {
	c := parityCount(n, odd)
	t := make([]fold, c*c)
	for p := 0; p < c; p++ {
		for q := 0; q < c; q++ {
			t[p*c+q] = fold1D(n, odd, p, q)
		}
	}
	return t
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// parityEntries evaluates the entries of one reflection block of the
// covariance from the offset table (table[dy·Nx+dx] = cov at grid
// offset (dx, dy)) and the block's two tabulated 1D folds. Row r is
// basis member (p, q) = (r mod cx, r div cx) with cx the x subspace
// dimension.
type parityEntries struct {
	nx, cx, cy int
	fx, fy     []fold
	table      []float64
}

func (m *Model) parityEntries(b int, table []float64) *parityEntries {
	xOdd, yOdd := blockParity(b)
	return &parityEntries{
		nx: m.Nx, cx: parityCount(m.Nx, xOdd), cy: parityCount(m.Ny, yOdd),
		fx: foldTable(m.Nx, xOdd), fy: foldTable(m.Ny, yOdd),
		table: table,
	}
}

// at returns entry (r, r2) of the block; at(r, r2) and at(r2, r) are
// equal bit for bit.
func (e *parityEntries) at(r, r2 int) float64 {
	x := &e.fx[r%e.cx*e.cx+r2%e.cx]
	y := &e.fy[r/e.cx*e.cy+r2/e.cx]
	v := 0.0
	for a := 0; a < x.terms; a++ {
		for c := 0; c < y.terms; c++ {
			v += x.w[a] * y.w[c] * e.table[y.d[c]*e.nx+x.d[a]]
		}
	}
	return v
}

// block assembles the whole block, or returns nil for an empty one.
func (e *parityEntries) block() *linalg.Matrix {
	rows := e.cx * e.cy
	if rows == 0 {
		return nil
	}
	blk := linalg.NewMatrix(rows, rows)
	for r := 0; r < rows; r++ {
		for r2 := r; r2 < rows; r2++ {
			v := e.at(r, r2)
			blk.Set(r, r2, v)
			blk.Set(r2, r, v)
		}
	}
	return blk
}

// SampleComponents draws one standard-normal vector z of the PCA
// components.
func (p *PCA) SampleComponents(rng *rand.Rand) []float64 {
	z := make([]float64, p.K)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	return z
}

// GridShifts returns the per-grid correlated thickness shifts Λ·z for
// a component sample z. Each block row's loading·z is mapped back to
// the (up to four) grids its basis vector touches.
func (p *PCA) GridShifts(z []float64) []float64 {
	if len(z) != p.K {
		panic(fmt.Sprintf("grid: GridShifts got %d components, want %d", len(z), p.K))
	}
	out := make([]float64, p.Nx*p.Ny)
	for b := range p.Blocks {
		idx := p.comp[b]
		cols := len(idx)
		if cols == 0 {
			continue
		}
		l := p.Blocks[b].Loadings
		rows := len(l) / cols
		for r := 0; r < rows; r++ {
			y := 0.0
			for c, x := range l[r*cols : (r+1)*cols] {
				y += x * z[idx[c]]
			}
			if len(p.Blocks) == 1 {
				out[r] = y
			} else {
				p.unmirror(out, b, r, y)
			}
		}
	}
	return out
}

// unmirror adds y times reflection block b's basis vector r to out.
// The vector is u_i ⊗ u_j with (i, j) = (r mod cx, r div cx); a paired
// 1D member is (e_i ± e_ī)/√2 (sign − for odd parity), the middle one
// of an odd side is e_i alone.
func (p *PCA) unmirror(out []float64, b, r int, y float64) {
	xOdd, yOdd := blockParity(b)
	cx := parityCount(p.Nx, xOdd)
	i, j := r%cx, r/cx
	ib, jb := p.Nx-1-i, p.Ny-1-j
	xPaired, yPaired := i != ib, j != jb
	switch {
	case xPaired && yPaired:
		y *= 0.5
	case xPaired || yPaired:
		y *= math.Sqrt2 / 2
	}
	sx, sy := 1.0, 1.0
	if xOdd {
		sx = -1
	}
	if yOdd {
		sy = -1
	}
	out[j*p.Nx+i] += y
	if xPaired {
		out[j*p.Nx+ib] += sx * y
	}
	if yPaired {
		out[jb*p.Nx+i] += sy * y
		if xPaired {
			out[jb*p.Nx+ib] += sx * sy * y
		}
	}
}
