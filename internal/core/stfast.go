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
// Each integral is summed in closed form from the marginals' moment
// generating functions (see blockIntegral.closedForm), a few
// exponentials per block independent of the device count. A block
// whose series bracket does not close first contributes a rigorous
// lower bound; only if the chip's sum stays below 1 with it is that
// block evaluated by the l0×l0 midpoint rule of the Fig. 9 algorithm,
// whose weights are built on first use. An engine is safe for
// concurrent queries.
type StFast struct {
	chip *Chip
	// L0 is the midpoint rule's subdomain count per axis; the paper
	// uses 10.
	L0     int
	blocks []*blockIntegral
}

// DefaultL0 is the midpoint rule's resolution when none is given.
// The paper argues l0 = 10 suffices for ~1% accuracy; 32 removes most
// of the discretization from the fallback's error budget, so it is the
// library default. The ablation benchmark sweeps this.
const DefaultL0 = 32

// NewStFast builds the engine from the chip's block marginals.
func NewStFast(c *Chip, l0 int) (*StFast, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil chip")
	}
	if l0 <= 0 {
		l0 = DefaultL0
	}
	e := &StFast{chip: c, L0: l0}
	for i := range c.Char.Blocks {
		bi, err := newBlockIntegral(&c.Char.Blocks[i], l0)
		if err != nil {
			return nil, fmt.Errorf("core: block %q: %w", c.Char.Blocks[i].Name, err)
		}
		e.blocks = append(e.blocks, bi)
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
	p, _ := e.failureAt(t)
	return p, nil
}

// failureAt is FailureProb for t > 0, with the path it took.
func (e *StFast) failureAt(t float64) (float64, chipPath) {
	return e.chipFailure(func(j int) (float64, float64, bool) {
		return math.Log(t / e.chip.Params[j].Alpha), e.chip.extrinsicHazard(j, t), true
	})
}

// chipPath records how chipFailure reached its answer.
type chipPath uint8

const (
	pathClosed    chipPath = iota // every block in closed form
	pathSaturated                 // closed forms and lower bounds reached 1
	pathMidpoint                  // some block by the midpoint rule
)

// chipFailure sums min(1, Σ_j D_total,j) over the blocks. at(j) gives
// block j's ln(t/α_j) and extrinsic hazard, and aged = false when its
// intrinsic population has seen no stress (D_j = 0).
//
// Blocks the closed form misses first add lowerBound. If the closed
// values and bounds reach 1, so does the exact sum, and Eq. 16's clamp
// makes the answer exactly 1 without evaluating them. Otherwise the
// missed blocks are evaluated by the midpoint rule.
func (e *StFast) chipFailure(at func(j int) (l, h float64, aged bool)) (float64, chipPath) {
	var buf [32]int
	missed := buf[:0]
	sum, bound := 0.0, 0.0
	for j, bi := range e.blocks {
		l, h, aged := at(j)
		if !aged {
			sum += combineFailure(0, h)
			continue
		}
		b, area := e.chip.Params[j].B, e.chip.Char.Blocks[j].AJ
		if d, ok := bi.closedForm(l, b, area); ok {
			sum += combineFailure(d, h)
			continue
		}
		bound += combineFailure(bi.lowerBound(l, b, area), h)
		missed = append(missed, j)
	}
	if len(missed) == 0 {
		return math.Min(sum, 1), pathClosed
	}
	if sum+bound >= 1 {
		return 1, pathSaturated
	}
	for _, j := range missed {
		l, h, _ := at(j)
		d := e.blocks[j].weights().midpoint(l, e.chip.Params[j].B, e.chip.Char.Blocks[j].AJ)
		sum += combineFailure(d, h)
	}
	return math.Min(sum, 1), pathMidpoint
}

// BlockFailureProb exposes one block's total (intrinsic + extrinsic)
// ensemble failure probability D_j(t), for the per-block failure
// contributions.
func (e *StFast) BlockFailureProb(j int, t float64) (float64, error) {
	if j < 0 || j >= len(e.blocks) {
		return 0, fmt.Errorf("core: block index %d out of range", j)
	}
	if t <= 0 {
		return 0, nil
	}
	p := e.chip.Params[j]
	d := e.blocks[j].failureProb(math.Log(t/p.Alpha), p.B, e.chip.Char.Blocks[j].AJ)
	return combineFailure(d, e.chip.extrinsicHazard(j, t)), nil
}
