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

// CoupledResult is the converged output of SolveCoupled.
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

// SolveCoupled runs the power/thermal fixed point: leakage power
// depends on temperature, which depends on power. powerAt receives the
// current per-block mean temperatures and returns per-block powers;
// the loop repeats until the largest block-temperature change falls
// below tolK (default 0.05 K) or maxRounds (default 25) is hit.
func (s *Solver) SolveCoupled(d *floorplan.Design, powerAt func(temps []float64) ([]float64, error), tolK float64, maxRounds int) (*CoupledResult, error) {
	return s.SolveCoupledCtx(context.Background(), d, powerAt, tolK, maxRounds)
}

// SolveCoupledCtx is SolveCoupled with a cancellation checkpoint before
// each fixed-point round.
//
// The rounds run in the cosine basis (spectral.go): the die's geometry
// is transformed once, each round forms the power spectrum and reads
// the block means back through the blocks' separable overlap vectors
// without building a field, and only the converged spectrum is
// transformed back. The returned Field, BlockMean and BlockMax are
// those of that final transform, the same path Solve takes, so a
// standalone Solve at the converged powers reproduces the field bit
// for bit.
func (s *Solver) SolveCoupledCtx(ctx context.Context, d *floorplan.Design, powerAt func(temps []float64) ([]float64, error), tolK float64, maxRounds int) (*CoupledResult, error) {
	if powerAt == nil {
		return nil, errors.New("thermal: SolveCoupled requires a power callback")
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
	m, err := s.newSpectral(d)
	if err != nil {
		return nil, err
	}
	temps := make([]float64, len(d.Blocks))
	for i := range temps {
		temps[i] = s.TAmbient
	}
	var (
		mean       = make([]float64, len(d.Blocks))
		powers     []float64
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
		if err := m.load(powers); err != nil {
			return nil, err
		}
		if err := m.blockMeans(mean); err != nil {
			return nil, err
		}
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
	field := m.field()
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
