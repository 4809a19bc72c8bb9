package core

import (
	"errors"
	"fmt"
	"math"
)

// BurnIn models post-screening field reliability: the chip population
// is stressed (elevated voltage/temperature) before shipment, early
// failures are discarded, and survivors enter the field with part of
// their life consumed. The stress exposure is expressed as per-block
// equivalent field hours — separately for the intrinsic wear-out
// population and the extrinsic defect population, whose acceleration
// factors differ:
//
//	P_shipped(t) = [P_shift(t) - P_shift(0)] / [1 - P_shift(0)]
//	P_shift(t)   = Σ_j D_j(t + τ_int,j | intrinsic)
//	                   ⊕ H_j(t + τ_ext,j | extrinsic)
//
// Burn-in is only profitable when an extrinsic (β < 1) population
// exists: it trades a little intrinsic wear-out (β > 1, ages
// slightly) for the removal of the steep infant-mortality hazard.
// With a purely intrinsic chip the wrapper correctly reports a
// *shorter* field lifetime — the classic result that one does not
// burn in a wear-out-dominated mechanism.
type BurnIn struct {
	base *StFast
	// IntShift and ExtShift are per-block equivalent field hours of
	// intrinsic and extrinsic aging consumed during the screen.
	IntShift, ExtShift []float64
	// Fallout is the fraction of the population failing during
	// burn-in (screened out), P_shift(0).
	Fallout float64
}

// NewBurnIn wraps a StFast engine with burn-in shifts. extShift may
// be nil when the chip has no extrinsic population.
func NewBurnIn(base *StFast, intShift, extShift []float64) (*BurnIn, error) {
	if base == nil {
		return nil, errors.New("core: nil base engine")
	}
	n := base.chip.NumBlocks()
	if len(intShift) != n {
		return nil, fmt.Errorf("core: %d intrinsic shifts for %d blocks", len(intShift), n)
	}
	if extShift == nil {
		extShift = make([]float64, n)
	}
	if len(extShift) != n {
		return nil, fmt.Errorf("core: %d extrinsic shifts for %d blocks", len(extShift), n)
	}
	for j := 0; j < n; j++ {
		if intShift[j] < 0 || extShift[j] < 0 {
			return nil, fmt.Errorf("core: negative burn-in shift for block %d", j)
		}
	}
	e := &BurnIn{
		base:     base,
		IntShift: append([]float64(nil), intShift...),
		ExtShift: append([]float64(nil), extShift...),
	}
	e.Fallout = e.shifted(0)
	return e, nil
}

// shifted evaluates P_shift(t) = Σ_j D_total_j at per-block shifted
// times.
func (e *BurnIn) shifted(t float64) float64 {
	chip := e.base.chip
	p, _ := e.base.chipFailure(func(j int) (float64, float64, bool) {
		h := chip.extrinsicHazard(j, t+e.ExtShift[j])
		tInt := t + e.IntShift[j]
		if tInt <= 0 {
			return 0, h, false
		}
		return math.Log(tInt / chip.Params[j].Alpha), h, true
	})
	return p
}

// Name implements Engine.
func (e *BurnIn) Name() string { return "st_fast_burnin" }

// FailureProb implements Engine: the field failure probability of a
// shipped (screened) chip.
func (e *BurnIn) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	if e.Fallout >= 1 {
		return 1, nil
	}
	p := (e.shifted(t) - e.Fallout) / (1 - e.Fallout)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}
