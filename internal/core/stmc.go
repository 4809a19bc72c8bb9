package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"obdrel/internal/grid"
	"obdrel/internal/par"
	"obdrel/internal/stats"
)

// StMC is the statistical variant that constructs each block's joint
// (u_j, v_j) PDF numerically from Monte-Carlo samples of the
// principal components (Section V's "st_MC"), instead of assuming
// independence of u_j and v_j. The per-block joint histogram is built
// once; every FailureProb evaluation is then a weighted sum over its
// cells.
//
// With Product set, the engine instead averages the exact product
// Π_j exp(-A_j·g(u_j, v_j)) over the raw samples — no first-order
// Taylor expansion (Eq. 16) and no cross-block independence
// assumption — which serves as the ablation reference for both
// approximations.
type StMC struct {
	chip *Chip
	// Samples is the number of principal-component draws (default
	// 5000). Bins is the joint-histogram resolution per axis (default
	// 40).
	Samples, Bins int
	// Product selects the exact sample-average mode.
	Product bool

	hists []*stats.Histogram2D
	// us, vs retain the raw per-block samples for Product mode,
	// indexed [block][sample].
	us, vs [][]float64
}

// StMCOptions configures NewStMC.
type StMCOptions struct {
	Samples int
	Bins    int
	Product bool
	Seed    int64
	// Workers parallelizes the sampling projection (0 = GOMAXPROCS,
	// 1 = serial). The component draws themselves stay serial so the
	// rng consumption order — and therefore the result — is identical
	// for every worker count.
	Workers int
}

// NewStMC draws the component samples and builds the per-block joint
// histograms. The PCA must belong to the chip's variation model.
func NewStMC(c *Chip, pca *grid.PCA, opts StMCOptions) (*StMC, error) {
	if c == nil || pca == nil {
		return nil, errors.New("core: nil chip or PCA")
	}
	if pca.Nx*pca.Ny != c.Model.NumGrids() {
		return nil, fmt.Errorf("core: PCA covers %d grids, model has %d", pca.Nx*pca.Ny, c.Model.NumGrids())
	}
	e := &StMC{
		chip:    c,
		Samples: opts.Samples,
		Bins:    opts.Bins,
		Product: opts.Product,
	}
	if e.Samples <= 0 {
		e.Samples = 5000
	}
	if e.Bins <= 0 {
		e.Bins = 40
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	n := c.NumBlocks()
	e.us = make([][]float64, n)
	e.vs = make([][]float64, n)
	for j := 0; j < n; j++ {
		e.us[j] = make([]float64, e.Samples)
		e.vs[j] = make([]float64, e.Samples)
	}
	// Draw every component vector serially (cheap, and it pins the rng
	// stream), then fan the expensive Λ·z projections out over the
	// workers — each sample writes disjoint [j][s] slots.
	zs := make([][]float64, e.Samples)
	for s := range zs {
		zs[s] = pca.SampleComponents(rng)
	}
	par.For(opts.Workers, e.Samples, func(s int) {
		shifts := pca.GridShifts(zs[s])
		for j := 0; j < n; j++ {
			e.us[j][s], e.vs[j][s] = c.Char.Blocks[j].UVFromShifts(shifts)
		}
	})
	// Build the per-block joint histograms over the sampled ranges.
	for j := 0; j < n; j++ {
		uLo, uHi := minMax(e.us[j])
		vLo, vHi := minMax(e.vs[j])
		// Guard degenerate axes (e.g. v constant for one-grid blocks).
		if !(uHi > uLo) {
			uHi = uLo + math.Max(1e-12, math.Abs(uLo)*1e-12)
		}
		if !(vHi > vLo) {
			vHi = vLo + math.Max(1e-18, math.Abs(vLo)*1e-12)
		}
		h, err := stats.NewHistogram2D(uLo, uHi, e.Bins, vLo, vHi, e.Bins)
		if err != nil {
			return nil, err
		}
		for s := 0; s < e.Samples; s++ {
			h.Add(e.us[j][s], e.vs[j][s])
		}
		e.hists = append(e.hists, h)
	}
	return e, nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Name implements Engine.
func (e *StMC) Name() string {
	if e.Product {
		return "st_MC_product"
	}
	return "st_MC"
}

// FailureProb implements Engine.
func (e *StMC) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	if e.Product {
		return e.failureProbProduct(t)
	}
	sum := 0.0
	for j, h := range e.hists {
		p := e.chip.Params[j]
		l := math.Log(t / p.Alpha)
		area := e.chip.Char.Blocks[j].AJ
		d := 0.0
		for i := 0; i < h.XBins; i++ {
			u := h.XMid(i)
			for k := 0; k < h.YBins; k++ {
				pm := h.Prob(i, k)
				if pm == 0 {
					continue
				}
				d += pm * -math.Expm1(-area*GValue(l, p.B, u, h.YMid(k)))
			}
		}
		sum += combineFailure(d, e.chip.extrinsicHazard(j, t))
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// failureProbProduct averages the exact chip survival over the raw
// samples: E_z[1 - Π_j exp(-A_j g_j)].
func (e *StMC) failureProbProduct(t float64) (float64, error) {
	n := e.chip.NumBlocks()
	ls := make([]float64, n)
	for j := 0; j < n; j++ {
		ls[j] = math.Log(t / e.chip.Params[j].Alpha)
	}
	ext := 0.0
	for j := 0; j < n; j++ {
		ext += e.chip.extrinsicHazard(j, t)
	}
	acc := 0.0
	for s := 0; s < e.Samples; s++ {
		expo := ext
		for j := 0; j < n; j++ {
			expo += e.chip.Char.Blocks[j].AJ * GValue(ls[j], e.chip.Params[j].B, e.us[j][s], e.vs[j][s])
		}
		acc += -math.Expm1(-expo)
	}
	return acc / float64(e.Samples), nil
}
