// Package blod implements the block-level oxide-thickness
// distribution (BLOD) characterization at the heart of the paper
// (Section IV). For every temperature-uniform block j the millions of
// per-device thickness random variables are projected onto just two:
// the BLOD sample mean u_j and sample variance v_j.
//
// With the PCA canonical form x_i = u0 + Λ_{g(i)}·z + λ_r·ε_i
// (Eq. 2), where g(i) is the correlation grid holding device i and
// w_{j,l} the (fractional) device count of block j in grid l:
//
//	u_j = u0 + ū_j·z,            ū_j = (1/m_j) Σ_l w_{j,l} Λ_l        (Eq. 22)
//	v_j ≈ λ_r² + zᵀ B_j z,       B_j = (1/(m_j-1)) Σ_l w_{j,l} (Λ_l-ū_j)(Λ_l-ū_j)ᵀ  (Eq. 24)
//
// Two sampling-noise terms are neglected for large m_j, exactly as the
// paper neglects u_{j,n+1} = λ_r/√m_j: the ε̄ contribution to u_j and
// the O(λ_r²√(2/m_j)) χ²-fluctuation of the independent component in
// v_j.
//
// Everything the analytic engines need reduces to inner products of
// loading rows, which equal covariance entries (Λ·Λᵀ = C). The
// characterization therefore works directly on grid covariance
// entries in O(G²) per block (G = grids overlapped by the block),
// assembling only each block's G×G sub-matrix — never the n×n
// covariance or the K×K quadratic-form matrix:
//
//	Var(u_j)  = ū_j·ū_j           = Σ_{l,l'} f_l f_{l'} C_{l,l'}
//	tr(B_j)   = Σ_l h_l M_{l,l}
//	tr(B_j²)  = Σ_{l,l'} h_l h_{l'} M_{l,l'}²
//
// with f_l = w_l/m_j, h_l = w_l/(m_j-1) and the centered Gram matrix
// M_{l,l'} = (Λ_l-ū)·(Λ_{l'}-ū) = C_{l,l'} - r_l - r_{l'} + q,
// r_l = Σ_{l'} f_{l'} C_{l,l'}, q = Σ_{l,l'} f_l f_{l'} C_{l,l'}.
//
// Note on Eq. (24): the printed coefficient formula in the paper has a
// sign typo (a variance must be a positive semi-definite form); this
// package uses the exact derivation above. Similarly, Eq. (30)'s
// printed â/b̂ expressions are garbled — the implemented values are
// the standard Satterthwaite/Yuan–Bentler moment match
// â = tr(B²)/tr(B), b̂ = tr(B)²/tr(B²), which reproduces the mean
// tr(B) and variance 2·tr(B²) of the quadratic form and is what the
// paper's Fig. 8 demonstrates.
package blod

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/stats"
)

// BlockChar is the BLOD characterization of one block.
type BlockChar struct {
	// Name echoes the block name for reporting.
	Name string
	// MJ is the block's device count m_j.
	MJ float64
	// AJ is the block's total normalized oxide area A_j (equal to the
	// device count with unit-area devices).
	AJ float64
	// U0 is the nominal thickness u_{j,0}.
	U0 float64
	// USigma is the standard deviation of the sample mean u_j.
	USigma float64
	// V0 is the deterministic part of v_j (λ_r² = σ_ε²).
	V0 float64
	// TrB and TrB2 are tr(B_j) and tr(B_j²); AHat and BHat the χ²
	// moment-match parameters (Eq. 29–30). Degenerate reports whether
	// the spatial quadratic form vanishes (block within one grid), in
	// which case v_j = V0 deterministically.
	TrB, TrB2  float64
	AHat, BHat float64
	Degenerate bool
	// Grids and Weights list the overlapped correlation grids and the
	// fractional device counts w_{j,l}, aligned by index and sorted by
	// grid for determinism.
	Grids   []int
	Weights []float64
	// NomOff holds each overlapped grid's deterministic nominal
	// offset from the block mean (zero without a wafer pattern):
	// NominalAt(grid) - U0. The offsets contribute a deterministic
	// term Σ h_l·NomOff_l² to V0; the zero-mean cross term between
	// offsets and the spatial field is kept exactly in UVFromShifts
	// but neglected in the analytic marginal of v_j (it slightly
	// widens the true distribution for strong patterns).
	NomOff []float64
}

// Characterization is the full-chip BLOD model: one BlockChar per
// design block, sharing one variation model.
type Characterization struct {
	Blocks []BlockChar
	Model  *grid.Model
}

// Characterize builds the BLOD characterization of a design under a
// thickness-variation model. The design and model must agree on die
// dimensions.
func Characterize(d *floorplan.Design, m *grid.Model) (*Characterization, error) {
	return CharacterizeCtx(context.Background(), d, m)
}

// CharacterizeCtx is Characterize with a cancellation checkpoint
// between blocks.
func CharacterizeCtx(ctx context.Context, d *floorplan.Design, m *grid.Model) (*Characterization, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if math.Abs(d.W-m.W) > 1e-9 || math.Abs(d.H-m.H) > 1e-9 {
		return nil, fmt.Errorf("blod: design %v×%v does not match model die %v×%v", d.W, d.H, m.W, m.H)
	}
	c := &Characterization{Model: m, Blocks: make([]BlockChar, len(d.Blocks))}
	for i := range d.Blocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bc, err := characterizeBlock(&d.Blocks[i], m)
		if err != nil {
			return nil, fmt.Errorf("blod: block %q: %w", d.Blocks[i].Name, err)
		}
		c.Blocks[i] = *bc
	}
	return c, nil
}

// characterizeBlock computes one block's (u_j, v_j) model from the
// covariance among the grids it overlaps — a G×G sub-matrix, never the
// n×n one.
func characterizeBlock(b *floorplan.Block, m *grid.Model) (*BlockChar, error) {
	grids, weights := gridOverlapWeights(b, m)
	if len(grids) == 0 {
		return nil, errors.New("block overlaps no correlation grid")
	}
	cov := m.CovarianceAmong(grids)
	mj := float64(b.Devices)
	bc := &BlockChar{
		Name:    b.Name,
		MJ:      mj,
		AJ:      b.NormalizedOxideArea(),
		V0:      m.SigmaE * m.SigmaE,
		Grids:   grids,
		Weights: weights,
	}
	g := len(grids)
	denom := mj - 1
	if denom <= 0 {
		denom = 1
	}
	// Block nominal: the device-weighted mean of the per-grid nominal
	// thicknesses (equal to u0 everywhere without a wafer pattern).
	bc.NomOff = make([]float64, g)
	for a := 0; a < g; a++ {
		bc.NomOff[a] = m.NominalAt(grids[a])
		bc.U0 += weights[a] / mj * bc.NomOff[a]
	}
	for a := 0; a < g; a++ {
		bc.NomOff[a] -= bc.U0
		// The systematic within-block spread acts as a deterministic
		// addition to the BLOD variance.
		bc.V0 += weights[a] / denom * bc.NomOff[a] * bc.NomOff[a]
	}
	// r_l = Σ_{l'} f_{l'} C_{l,l'} and q = Σ_l f_l r_l.
	r := make([]float64, g)
	q := 0.0
	for a := 0; a < g; a++ {
		for bb := 0; bb < g; bb++ {
			r[a] += weights[bb] / mj * cov[a*g+bb]
		}
		q += weights[a] / mj * r[a]
	}
	bc.USigma = math.Sqrt(math.Max(q, 0))
	// Centered Gram matrix M and the traces of B.
	for a := 0; a < g; a++ {
		ha := weights[a] / denom
		maa := cov[a*g+a] - 2*r[a] + q
		bc.TrB += ha * maa
		for bb := 0; bb < g; bb++ {
			mab := cov[a*g+bb] - r[a] - r[bb] + q
			hb := weights[bb] / denom
			bc.TrB2 += ha * hb * mab * mab
		}
	}
	if bc.TrB < 0 {
		bc.TrB = 0
	}
	// Degenerate when the spatial spread within the block is
	// negligible against the independent component.
	if bc.TrB <= 1e-14*bc.V0 || bc.TrB2 <= 0 {
		bc.Degenerate = true
		bc.TrB, bc.TrB2 = 0, 0
		return bc, nil
	}
	bc.AHat = bc.TrB2 / bc.TrB
	bc.BHat = bc.TrB * bc.TrB / bc.TrB2
	return bc, nil
}

// gridOverlapWeights distributes the block's devices over the
// correlation grids proportionally to geometric overlap, returning
// parallel slices sorted by grid index.
func gridOverlapWeights(b *floorplan.Block, m *grid.Model) (grids []int, weights []float64) {
	area := b.Area()
	if area <= 0 {
		return nil, nil
	}
	density := float64(b.Devices) / area
	for g := 0; g < m.NumGrids(); g++ {
		x0, y0, x1, y1 := m.GridRect(g)
		ox := overlap1D(b.X, b.X+b.W, x0, x1)
		oy := overlap1D(b.Y, b.Y+b.H, y0, y1)
		if ox > 0 && oy > 0 {
			grids = append(grids, g)
			weights = append(weights, density*ox*oy)
		}
	}
	// Grid indices ascend by construction; keep the invariant explicit
	// for future-proofing.
	if !sort.IntsAreSorted(grids) {
		sort.Sort(&byGrid{grids, weights})
	}
	return grids, weights
}

type byGrid struct {
	g []int
	w []float64
}

func (s *byGrid) Len() int           { return len(s.g) }
func (s *byGrid) Less(i, j int) bool { return s.g[i] < s.g[j] }
func (s *byGrid) Swap(i, j int) {
	s.g[i], s.g[j] = s.g[j], s.g[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

func overlap1D(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// UDist returns the marginal distribution of the sample mean u_j:
// Normal(u0, USigma). For a block with no correlated variation the
// sigma degenerates; a tiny floor keeps the distribution proper.
func (bc *BlockChar) UDist() (stats.Normal, error) {
	sigma := bc.USigma
	if sigma <= 0 {
		sigma = 1e-12 * math.Max(bc.U0, 1)
	}
	return stats.NewNormal(bc.U0, sigma)
}

// VDist returns the marginal distribution of the sample variance v_j:
// the shifted-scaled χ² of Eq. 29, or a point mass at V0 when the
// block is degenerate.
func (bc *BlockChar) VDist() (stats.Dist, error) {
	if bc.Degenerate {
		return stats.Degenerate{V: bc.V0}, nil
	}
	return stats.NewShiftedScaledChi2(bc.V0, bc.AHat, bc.BHat)
}

// UVFromShifts evaluates (u_j, v_j) for one chip sample given the
// per-grid correlated shifts s = Λ·z (from grid.PCA.GridShifts):
//
//	u_j = ū0 + Σ_l f_l s_l
//	v_j = λ_r² + Σ_l h_l (NomOff_l + s_l - (u_j - ū0))²
//
// which equals the (pattern-shifted) quadratic form without
// materializing B; with no wafer pattern the offsets are zero and
// this is exactly v_j = λ_r² + zᵀB_j z.
func (bc *BlockChar) UVFromShifts(shifts []float64) (u, v float64) {
	ub := 0.0
	for i, g := range bc.Grids {
		ub += bc.Weights[i] / bc.MJ * shifts[g]
	}
	u = bc.U0 + ub
	if bc.Degenerate {
		return u, bc.V0
	}
	denom := bc.MJ - 1
	if denom <= 0 {
		denom = 1
	}
	// V0 already contains the deterministic pattern spread; remove it
	// here because the loop below rebuilds the exact squared sum with
	// the offsets inside.
	v = bc.V0 - patternSpread(bc, denom)
	for i, g := range bc.Grids {
		d := bc.NomOff[i] + shifts[g] - ub
		v += bc.Weights[i] / denom * d * d
	}
	return u, v
}

// patternSpread returns the deterministic Σ h_l·NomOff_l² term folded
// into V0, so sampling can rebuild the exact squared sum.
func patternSpread(bc *BlockChar, denom float64) float64 {
	s := 0.0
	for i := range bc.NomOff {
		s += bc.Weights[i] / denom * bc.NomOff[i] * bc.NomOff[i]
	}
	return s
}

// DeviceAllocation returns an integer per-grid device allocation for
// the block using largest-remainder rounding of the fractional
// weights; the counts sum exactly to the block's device count. The
// device-level Monte-Carlo engine uses this to place devices.
func (bc *BlockChar) DeviceAllocation() (grids []int, counts []int) {
	g := len(bc.Grids)
	grids = append([]int(nil), bc.Grids...)
	counts = make([]int, g)
	target := int(math.Round(bc.MJ))
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, g)
	assigned := 0
	for i, w := range bc.Weights {
		whole := int(math.Floor(w))
		counts[i] = whole
		assigned += whole
		rems[i] = rem{i, w - float64(whole)}
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for k := 0; assigned < target && k < len(rems); k++ {
		counts[rems[k].i]++
		assigned++
	}
	// Rounding can only leave a deficit of < g; top up cyclically in
	// the pathological case, and trim any excess.
	for i := 0; assigned < target; i = (i + 1) % g {
		counts[i]++
		assigned++
	}
	for i := 0; assigned > target; i = (i + 1) % g {
		if counts[i] > 0 {
			counts[i]--
			assigned--
		}
	}
	return grids, counts
}
