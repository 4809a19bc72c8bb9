package core

import (
	"fmt"
	"math"
)

// StFast is the paper's proposed statistical engine (Section IV-D):
// the chip-ensemble reliability is N double integrals over each
// block's marginal BLOD-moment PDFs (Eq. 28),
//
//	R_c(t) = 1 - Σ_j ∫∫ (1 - e^(-A_j·g(u_j,v_j))) f_u(u_j) f_v(v_j) du_j dv_j
//
// evaluated with the l0×l0 midpoint rule of the Fig. 9 algorithm. The
// rule is summed in factored form (see blockWeights.failureProb): in
// the ppm regime a time point costs O(N·l0) exponentials and O(N·K·l0)
// multiply-adds, independent of the device count.
type StFast struct {
	chip *Chip
	// L0 is the subdomain count per axis; the paper uses 10.
	L0      int
	weights []*blockWeights
}

// DefaultL0 is the integration resolution used when none is given.
// The paper argues l0 = 10 suffices for ~1% accuracy; 32 costs
// microseconds more and removes the discretization from the error
// budget, so it is the library default. The ablation benchmark sweeps
// this.
const DefaultL0 = 32

// NewStFast builds the engine, precomputing each block's integration
// grid.
func NewStFast(c *Chip, l0 int) (*StFast, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil chip")
	}
	if l0 <= 0 {
		l0 = DefaultL0
	}
	e := &StFast{chip: c, L0: l0}
	for i := range c.Char.Blocks {
		bw, err := newBlockWeights(&c.Char.Blocks[i], l0)
		if err != nil {
			return nil, fmt.Errorf("core: block %q: %w", c.Char.Blocks[i].Name, err)
		}
		e.weights = append(e.weights, bw)
	}
	return e, nil
}

// Name implements Engine.
func (e *StFast) Name() string { return "st_fast" }

// FailureProb implements Engine: P_fail(t) = Σ_j D_j(t), the
// first-order (Eq. 16) union bound over blocks, clamped to [0, 1].
func (e *StFast) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	sum := 0.0
	for j := range e.weights {
		sum += e.blockFailure(j, t)
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// blockFailure is block j's total (intrinsic + extrinsic) ensemble
// failure probability at time t.
func (e *StFast) blockFailure(j int, t float64) float64 {
	p := e.chip.Params[j]
	l := math.Log(t / p.Alpha)
	d := e.weights[j].failureProb(l, p.B, e.chip.Char.Blocks[j].AJ)
	return combineFailure(d, e.chip.extrinsicHazard(j, t))
}

// BlockFailureProb exposes one block's ensemble failure probability
// D_j(t) for diagnostics and for the hybrid engine's table filling.
func (e *StFast) BlockFailureProb(j int, t float64) (float64, error) {
	if j < 0 || j >= len(e.weights) {
		return 0, fmt.Errorf("core: block index %d out of range", j)
	}
	if t <= 0 {
		return 0, nil
	}
	return e.blockFailure(j, t), nil
}
