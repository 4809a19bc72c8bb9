package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"

	"obdrel/internal/fault"
	"obdrel/internal/floorplan"
	"obdrel/internal/obs"
)

// CoupledResult is the converged output of SolveCoupledCtx.
type CoupledResult struct {
	Field *Field
	// BlockMean and BlockMax are the per-block mean and worst-case
	// temperatures (°C).
	BlockMean, BlockMax []float64
	// Powers is the converged per-block power (W).
	Powers []float64
	// Rounds is the number of power/thermal fixed-point rounds used.
	Rounds int
}

// SolveCoupledCtx runs the power/thermal fixed point on design d
// through its operator op (built by NewOperator for this solver and
// d's geometry): leakage power depends on temperature, which depends
// on power. powerAt receives the current per-block mean temperatures
// and returns per-block powers; the loop repeats until the largest
// block-temperature change falls below tolK (default 0.05 K) or
// maxRounds (default 25) is hit, with a cancellation checkpoint before
// each round.
//
// Each round reads the block means as T_amb + G·p, O(B²), without
// building a field. The field is formed once, as T_amb + H·p at the
// converged powers, and the returned BlockMean and BlockMax are read
// from it by BlockTempsInto.
func (s *Solver) SolveCoupledCtx(ctx context.Context, op *Operator, d *floorplan.Design, powerAt func(temps []float64) ([]float64, error), tolK float64, maxRounds int) (*CoupledResult, error) {
	if powerAt == nil {
		return nil, errors.New("thermal: SolveCoupledCtx requires a power callback")
	}
	if op.B != len(d.Blocks) {
		return nil, fmt.Errorf("thermal: operator of %d blocks for a %d-block design", op.B, len(d.Blocks))
	}
	if tolK <= 0 {
		tolK = 0.05
	}
	if maxRounds <= 0 {
		maxRounds = 25
	}
	// One span per coupled solve: the round count and the final change
	// are attributes, so a trace does not grow with the rounds.
	ctx, sp := obs.StartSpan(ctx, "thermal.coupled")
	defer sp.End()
	temps := make([]float64, len(d.Blocks))
	for i := range temps {
		temps[i] = s.TAmbient
	}
	var (
		mean       = make([]float64, len(d.Blocks))
		powers     []float64
		err        error
		lastChange = math.Inf(1)
	)
	round := 0
	for ; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// thermal.solve: one fault evaluation per fixed-point round, so
		// an armed latency or error rule perturbs the solver loop exactly
		// where a slow or failing solver backend would.
		if err := fault.Inject(ctx, "thermal.solve"); err != nil {
			return nil, err
		}
		powers, err = powerAt(temps)
		if err != nil {
			return nil, fmt.Errorf("thermal: power callback: %w", err)
		}
		if len(powers) != len(d.Blocks) {
			return nil, fmt.Errorf("thermal: %d powers for %d blocks", len(powers), len(d.Blocks))
		}
		for j, p := range powers {
			// A NaN or infinite power would make every later change
			// NaN, which no stopping rule rejects.
			if !(p >= 0) || math.IsInf(p, 1) {
				return nil, fmt.Errorf("thermal: power %v for block %q is not finite and non-negative", p, d.Blocks[j].Name)
			}
		}
		op.blockMeans(s.TAmbient, powers, mean)
		lastChange = 0
		for i := range mean {
			if c := math.Abs(mean[i] - temps[i]); c > lastChange {
				lastChange = c
			}
		}
		copy(temps, mean)
		if lastChange < tolK {
			round++
			break
		}
	}
	if sp != nil {
		sp.SetAttr("rounds", round)
		sp.SetAttr("last_change_k", lastChange)
	}
	if lastChange >= tolK {
		return nil, errors.New("thermal: power/thermal fixed point did not converge")
	}
	field := op.field(s.TAmbient, powers)
	max := make([]float64, len(d.Blocks))
	if err := field.BlockTempsInto(d, mean, max); err != nil {
		return nil, err
	}
	return &CoupledResult{
		Field:     field,
		BlockMean: mean,
		BlockMax:  max,
		Powers:    powers,
		Rounds:    round,
	}, nil
}
