// Package grid implements the grid-based spatial-correlation model of
// oxide-thickness variation (Section II of the paper).
//
// The chip is partitioned into Nx×Ny grids. Every device in grid i has
// thickness
//
//	x = u0 + z_g + z_corr(i) + z_eps                         (Eq. 1)
//
// where z_g ~ N(0, σ_g²) is shared by the whole die, z_corr is a
// multivariate Gaussian over grids with an exponentially decaying
// distance correlation (the paper's substitute for measured wafer
// data, citing Liu [38]), and z_eps ~ N(0, σ_ε²) is independent per
// device. Principal-component analysis of the combined
// global+spatial covariance produces the canonical form
//
//	x = λ_{i,0} + Σ_j λ_{i,j} z_j + λ_r ε                    (Eq. 2)
//
// with independent standard normal z_j. The loading matrix Λ (one row
// per grid) is stored block-wise by reflection parity (see PCA).
package grid

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/linalg"
)

// Model describes the thickness-variation structure of one technology
// and chip geometry. All lengths share one (arbitrary) unit; RhoDist
// is expressed as a fraction of the larger chip dimension, matching
// the paper's "correlation distance normalized w.r.t. the chip
// dimensions".
type Model struct {
	// U0 is the nominal oxide thickness (nm).
	U0 float64
	// W, H are the chip dimensions.
	W, H float64
	// Nx, Ny are the spatial-correlation grid resolution.
	Nx, Ny int
	// SigmaG, SigmaS, SigmaE are the standard deviations of the
	// inter-die, spatially correlated intra-die, and independent
	// variation components (nm).
	SigmaG, SigmaS, SigmaE float64
	// RhoDist is the correlation distance as a fraction of
	// max(W, H). Used by StructExpDecay.
	RhoDist float64
	// Structure selects the correlation structure; the zero value is
	// the paper's exponential-decay grid model.
	Structure Structure
	// QTLevels and QTDecay configure StructQuadTree: the number of
	// levels (default 3) and the geometric per-level variance decay
	// (default 0.5).
	QTLevels int
	QTDecay  float64
	// Pattern optionally adds the wafer-level systematic component of
	// [21]–[23]: a deterministic, location-dependent nominal-thickness
	// offset per grid (the paper notes its model and the pattern model
	// are compatible by making the inter-die term location-dependent).
	// Nil means no systematic pattern.
	Pattern *WaferPattern
}

// WaferPattern is a deterministic across-wafer thickness pattern
// (bowl/slant, [21], [23]) evaluated at a die's position on the
// wafer. Coordinates are in wafer-radius units with the wafer center
// at the origin.
type WaferPattern struct {
	// DieX, DieY locate the die center on the wafer; DieSpan is the
	// die width in wafer-radius units (used to map within-die
	// positions onto the wafer).
	DieX, DieY, DieSpan float64
	// Bowl is the quadratic coefficient: offset Bowl·r² (nm) at
	// radius r.
	Bowl float64
	// SlantX, SlantY are linear gradients (nm per wafer radius).
	SlantX, SlantY float64
}

// Offset returns the pattern's thickness offset (nm) at wafer
// coordinates (xw, yw).
func (p *WaferPattern) Offset(xw, yw float64) float64 {
	return p.Bowl*(xw*xw+yw*yw) + p.SlantX*xw + p.SlantY*yw
}

// NominalAt returns the nominal thickness of grid g: u0 plus the
// wafer pattern's offset at the grid's wafer position, if a pattern
// is configured.
func (m *Model) NominalAt(g int) float64 {
	if m.Pattern == nil {
		return m.U0
	}
	x, y := m.GridCenter(g)
	span := m.Pattern.DieSpan
	xw := m.Pattern.DieX + (x/m.W-0.5)*span
	yw := m.Pattern.DieY + (y/m.H-0.5)*span
	return m.U0 + m.Pattern.Offset(xw, yw)
}

// NewModel validates and returns a Model.
func NewModel(u0, w, h float64, nx, ny int, sigmaG, sigmaS, sigmaE, rhoDist float64) (*Model, error) {
	m := &Model{
		U0: u0, W: w, H: h, Nx: nx, Ny: ny,
		SigmaG: sigmaG, SigmaS: sigmaS, SigmaE: sigmaE, RhoDist: rhoDist,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MaxResolution bounds Nx and Ny. The PCA build eigendecomposes four
// dense reflection blocks of about Nx·Ny/4 rows each (on a square,
// swap-symmetric grid, EO and four swap halves of about Nx·Ny/8 rows
// instead), holding the blocks and their eigenvectors at once: about
// 4·(Nx·Ny)² bytes in all, 1 GiB at 128×128 (n = 16,384 grids), and
// the O(n³) eigensolves take minutes there. Every grid the repo builds is far below it (the
// paper's 25×25, 40×40 in tests, the daemon's cap of 64), so the bound
// only turns away a decoded model, from disk or a peer, that would
// have the PCA stage allocate without limit.
const MaxResolution = 128

// Validate checks the model's parameters.
func (m *Model) Validate() error {
	switch {
	case !(m.U0 > 0):
		return fmt.Errorf("grid: nominal thickness must be positive, got %v", m.U0)
	case !(m.W > 0) || !(m.H > 0):
		return fmt.Errorf("grid: chip dimensions must be positive, got %v×%v", m.W, m.H)
	case m.Nx <= 0 || m.Ny <= 0:
		return fmt.Errorf("grid: grid resolution must be positive, got %d×%d", m.Nx, m.Ny)
	case m.Nx > MaxResolution || m.Ny > MaxResolution:
		return fmt.Errorf("grid: grid resolution %d×%d exceeds %d per side", m.Nx, m.Ny, MaxResolution)
	case m.SigmaG < 0 || m.SigmaS < 0 || m.SigmaE < 0:
		return errors.New("grid: sigmas must be non-negative")
	case m.SigmaG+m.SigmaS+m.SigmaE == 0:
		return errors.New("grid: at least one variation component must be non-zero")
	case m.Structure == StructExpDecay && !(m.RhoDist > 0):
		return fmt.Errorf("grid: correlation distance must be positive, got %v", m.RhoDist)
	case m.Structure == StructQuadTree && (m.QTLevels < 0 || m.QTDecay < 0):
		return fmt.Errorf("grid: invalid quad-tree parameters levels=%d decay=%v", m.QTLevels, m.QTDecay)
	case m.Pattern != nil && m.Pattern.DieSpan < 0:
		return fmt.Errorf("grid: wafer-pattern die span must be non-negative, got %v", m.Pattern.DieSpan)
	}
	return nil
}

// NumGrids returns the number of spatial grids n = Nx·Ny.
func (m *Model) NumGrids() int { return m.Nx * m.Ny }

// GridCenter returns the center coordinates of grid g.
func (m *Model) GridCenter(g int) (x, y float64) {
	ix := g % m.Nx
	iy := g / m.Nx
	return (float64(ix) + 0.5) * m.W / float64(m.Nx), (float64(iy) + 0.5) * m.H / float64(m.Ny)
}

// GridRect returns the rectangle [x0,x1)×[y0,y1) of grid g.
func (m *Model) GridRect(g int) (x0, y0, x1, y1 float64) {
	ix := g % m.Nx
	iy := g / m.Nx
	wx := m.W / float64(m.Nx)
	wy := m.H / float64(m.Ny)
	return float64(ix) * wx, float64(iy) * wy, float64(ix+1) * wx, float64(iy+1) * wy
}

// Covariance builds the n×n covariance matrix of the combined
// global + spatially correlated thickness component across grids.
// For StructExpDecay, entry (i, j) is σ_g² + σ_s²·exp(-d_ij/L); for
// StructQuadTree it is σ_g² plus the variances of the quad-tree
// regions shared by the two grids. The analysis itself never builds
// it — the PCA solves reflection blocks and BLOD reads per-block
// sub-matrices (CovarianceAmong) — so it is the dense reference those
// paths are verified against.
func (m *Model) Covariance() *linalg.Matrix {
	n := m.NumGrids()
	c := linalg.NewMatrix(n, n)
	kern := m.kernel()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kern(i, j)
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	return c
}

// CovarianceAmong returns the covariance sub-matrix among the given
// grids (row-major, len(grids)² entries), without building the n×n
// matrix. Each entry is evaluated by the same expression as
// Covariance's, so it is bit-identical to the dense entry.
func (m *Model) CovarianceAmong(grids []int) []float64 {
	g := len(grids)
	out := make([]float64, g*g)
	kern := m.kernel()
	for a := 0; a < g; a++ {
		for b := a; b < g; b++ {
			v := kern(grids[a], grids[b])
			out[a*g+b] = v
			out[b*g+a] = v
		}
	}
	return out
}

// kernel returns the covariance entry function cov(i, j) of the
// model's structure — the one expression every covariance consumer
// evaluates. For StructExpDecay it is σ_g² + σ_s²·exp(-d_ij/L); for
// StructQuadTree σ_g² plus the variances of the regions the two grids
// share.
func (m *Model) kernel() func(i, j int) float64 {
	g2 := m.SigmaG * m.SigmaG
	if m.Structure == StructQuadTree {
		lv := m.qtLevelVariances()
		return func(i, j int) float64 {
			xi, yi := m.GridCenter(i)
			xj, yj := m.GridCenter(j)
			v := g2
			for l, s2 := range lv {
				if m.qtRegion(xi, yi, l+1) == m.qtRegion(xj, yj, l+1) {
					v += s2
				}
			}
			return v
		}
	}
	l := m.RhoDist * math.Max(m.W, m.H)
	s2 := m.SigmaS * m.SigmaS
	return func(i, j int) float64 {
		xi, yi := m.GridCenter(i)
		xj, yj := m.GridCenter(j)
		return g2 + s2*math.Exp(-math.Hypot(xi-xj, yi-yj)/l)
	}
}

// VarianceBudget splits a total sigma into the (global, spatial,
// independent) components given variance fractions that must sum
// to 1. This mirrors Table II of the paper (50% / 25% / 25%).
func VarianceBudget(sigmaTot, fracG, fracS, fracE float64) (sigmaG, sigmaS, sigmaE float64, err error) {
	if !(sigmaTot > 0) {
		return 0, 0, 0, fmt.Errorf("grid: total sigma must be positive, got %v", sigmaTot)
	}
	if fracG < 0 || fracS < 0 || fracE < 0 || math.Abs(fracG+fracS+fracE-1) > 1e-9 {
		return 0, 0, 0, fmt.Errorf("grid: variance fractions must be non-negative and sum to 1, got %v+%v+%v",
			fracG, fracS, fracE)
	}
	v := sigmaTot * sigmaTot
	return math.Sqrt(v * fracG), math.Sqrt(v * fracS), math.Sqrt(v * fracE), nil
}
