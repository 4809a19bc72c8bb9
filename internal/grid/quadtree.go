package grid

import (
	"fmt"
	"math"

	"obdrel/internal/linalg"
)

// Structure selects how the spatially correlated component is
// modeled. The paper's experiments use the grid model with an
// exponential-decay covariance (Section II, [20], [38]); the quad-tree
// model of Agarwal et al. [24] is the alternative correlation
// structure the paper cites, provided here so analyses can be run
// under both.
type Structure int

const (
	// StructExpDecay is the grid model: correlation between grids
	// decays exponentially with distance, and the canonical form is
	// obtained by eigendecomposition (PCA).
	StructExpDecay Structure = iota
	// StructQuadTree is the quad-tree model: the die is covered by
	// 2^l×2^l regions at levels 1..QTLevels, each carrying an
	// independent Gaussian; a device's correlated component is the sum
	// of its enclosing regions' variables (plus the global level-0
	// term). Two devices correlate through the regions they share, so
	// correlation decreases in steps with distance. The canonical form
	// is exact by construction — no eigendecomposition needed.
	StructQuadTree
)

// String implements fmt.Stringer.
func (s Structure) String() string {
	switch s {
	case StructExpDecay:
		return "expdecay"
	case StructQuadTree:
		return "quadtree"
	}
	return fmt.Sprintf("structure(%d)", int(s))
}

// qtLevelVariances splits the spatial variance σ_s² across quad-tree
// levels 1..levels with geometric weights decay^(l-1), normalized to
// sum to σ_s².
func (m *Model) qtLevelVariances() []float64 {
	levels := m.QTLevels
	if levels <= 0 {
		levels = 3
	}
	decay := m.QTDecay
	if decay <= 0 {
		decay = 0.5
	}
	w := make([]float64, levels)
	sum := 0.0
	for l := range w {
		w[l] = math.Pow(decay, float64(l))
		sum += w[l]
	}
	s2 := m.SigmaS * m.SigmaS
	for l := range w {
		w[l] = s2 * w[l] / sum
	}
	return w
}

// qtRegion returns the region index of point (x, y) at level l
// (2^l × 2^l regions over the die).
func (m *Model) qtRegion(x, y float64, l int) int {
	n := 1 << l
	rx := int(x / m.W * float64(n))
	ry := int(y / m.H * float64(n))
	if rx < 0 {
		rx = 0
	}
	if rx >= n {
		rx = n - 1
	}
	if ry < 0 {
		ry = 0
	}
	if ry >= n {
		ry = n - 1
	}
	return ry*n + rx
}

// quadTreeFactor returns the exact canonical-form factor of the
// quad-tree structure: one column for the global variable and one per
// region per level, with loading σ_level on the grids the region
// covers. The result satisfies Λ·Λᵀ = Covariance exactly. It is
// stored as a single identity-basis block (row i = grid i).
func (m *Model) quadTreeFactor() (*PCA, error) {
	n := m.NumGrids()
	lv := m.qtLevelVariances()
	levels := len(lv)
	// Column layout: [global | level-1 regions | level-2 regions | …].
	cols := 1
	offsets := make([]int, levels)
	for l := 0; l < levels; l++ {
		offsets[l] = cols
		cols += (1 << (l + 1)) * (1 << (l + 1))
	}
	loadings := linalg.NewMatrix(n, cols)
	for i := 0; i < n; i++ {
		x, y := m.GridCenter(i)
		loadings.Set(i, 0, m.SigmaG)
		for l := 0; l < levels; l++ {
			r := m.qtRegion(x, y, l+1)
			loadings.Set(i, offsets[l]+r, math.Sqrt(lv[l]))
		}
	}
	// Column variances play the role PCA eigenvalues play for
	// reporting: variance contributed per component.
	eig := make([]float64, cols)
	for c := 0; c < cols; c++ {
		s := 0.0
		for i := 0; i < n; i++ {
			v := loadings.At(i, c)
			s += v * v
		}
		eig[c] = s / float64(n)
	}
	total := m.SigmaG*m.SigmaG + m.SigmaS*m.SigmaS
	// The shapes are consistent by construction; NewPCA still rejects
	// non-finite values, e.g. from an infinite sigma.
	return NewPCA(m.Nx, m.Ny, []PCABlock{{Eigenvalues: eig, Loadings: loadings.Data}},
		total*float64(n), total*float64(n))
}
