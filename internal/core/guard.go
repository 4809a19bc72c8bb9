package core

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/obd"
)

// GuardBand is the traditional worst-case analysis [4], [14], [28]:
// every device on every chip is assumed to have the minimum oxide
// thickness and to run at the worst-case operating temperature, so
// the chip reliability collapses to the single deterministic Weibull
//
//	R(t) = exp(-A·(t/α_worst)^(b_worst·x_min))               (Eq. 33)
//
// with A the total normalized oxide area. The lifetime at a given
// requirement has the closed form of Eq. 34. The method's ~50%
// pessimism is what the statistical engines eliminate.
type GuardBand struct {
	// Area is the chip's total normalized oxide area.
	Area float64
	// Params are the worst-corner (α, b); XMin the minimum thickness.
	Params obd.Params
	XMin   float64
	// Extrinsic, when non-nil, adds the worst-corner defect-population
	// hazard (the block with the smallest extrinsic α).
	Extrinsic *obd.ExtrinsicParams
}

// NewGuardBand builds the engine from a chip, taking the worst block
// parameters and x_min = u0 - nSigma·σ_tot of the variation model.
func NewGuardBand(c *Chip, nSigma float64) (*GuardBand, error) {
	if c == nil {
		return nil, errors.New("core: nil chip")
	}
	if nSigma < 0 {
		return nil, fmt.Errorf("core: negative guard-band sigma %v", nSigma)
	}
	m := c.Model
	sigmaTot := math.Sqrt(m.SigmaG*m.SigmaG + m.SigmaS*m.SigmaS + m.SigmaE*m.SigmaE)
	// With a wafer pattern the guard band starts from the worst
	// (thinnest) grid nominal on the die.
	nomMin := m.U0
	for g := 0; g < m.NumGrids(); g++ {
		if nom := m.NominalAt(g); nom < nomMin {
			nomMin = nom
		}
	}
	xMin := nomMin - nSigma*sigmaTot
	if xMin <= 0 {
		return nil, fmt.Errorf("core: guard band thickness %v not positive", xMin)
	}
	gb := &GuardBand{Area: c.TotalArea(), Params: c.WorstParams(), XMin: xMin}
	if c.Extrinsic != nil {
		worst := c.Extrinsic[0]
		for _, p := range c.Extrinsic[1:] {
			if p.AlphaE < worst.AlphaE {
				worst = p
			}
		}
		gb.Extrinsic = &worst
	}
	return gb, nil
}

// Name implements Engine.
func (e *GuardBand) Name() string { return "guard" }

// FailureProb implements Engine.
func (e *GuardBand) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	beta := e.Params.B * e.XMin
	expo := e.Area * math.Exp(beta*math.Log(t/e.Params.Alpha))
	if e.Extrinsic != nil {
		expo += e.Extrinsic.Hazard(t, e.Area)
	}
	return -math.Expm1(-expo), nil
}
