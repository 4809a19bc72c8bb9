package thermal

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/power"
)

// spectralReference is the coupled solve as it ran before the
// operator: every round loads the powers' spectrum in the cosine basis
// and reads each block mean back as the bilinear form of its overlap
// vectors, O(B·Nx·Ny) per round, and one inverse transform of the
// converged spectrum gives the field.
func spectralReference(s *Solver, d *floorplan.Design, powerAt func([]float64) ([]float64, error)) (*CoupledResult, error) {
	m, err := s.newSpectral(d)
	if err != nil {
		return nil, err
	}
	nx, ny := m.nx, m.ny
	hat := make([]float64, nx*ny)
	temps := make([]float64, len(d.Blocks))
	for i := range temps {
		temps[i] = s.TAmbient
	}
	mean := make([]float64, len(d.Blocks))
	for round := 1; round <= 25; round++ {
		powers, err := powerAt(temps)
		if err != nil {
			return nil, err
		}
		clear(hat)
		for j := range m.blocks {
			b := &m.blocks[j]
			density := powers[j] / b.area
			for ky, yv := range b.yhat {
				a := density * yv
				row := hat[ky*nx : (ky+1)*nx]
				for kx, xv := range b.xhat {
					row[kx] += a * xv
				}
			}
		}
		for i, e := range m.eig {
			hat[i] /= e
		}
		change := 0.0
		for j := range m.blocks {
			b := &m.blocks[j]
			acc := 0.0
			for ky, yv := range b.yhat {
				row := hat[ky*nx : (ky+1)*nx]
				r := 0.0
				for kx, xv := range b.xhat {
					r += row[kx] * xv
				}
				acc += yv * r
			}
			mean[j] = s.TAmbient + acc/b.wsum
			change = math.Max(change, math.Abs(mean[j]-temps[j]))
		}
		copy(temps, mean)
		if change < 0.05 {
			field := &Field{Nx: nx, Ny: ny, W: d.W, H: d.H, Temps: make([]float64, nx*ny), Iterations: 1}
			m.inverse(hat, make([]float64, nx*ny), field.Temps)
			for i := range field.Temps {
				field.Temps[i] += s.TAmbient
			}
			max := make([]float64, len(d.Blocks))
			if err := field.BlockTempsInto(d, mean, max); err != nil {
				return nil, err
			}
			return &CoupledResult{Field: field, BlockMean: mean, BlockMax: max, Powers: powers, Rounds: round}, nil
		}
	}
	return nil, errors.New("spectral reference did not converge")
}

// TestThermalOperatorMatchesSpectral: on C1–C6 at four supply
// voltages, the operator's O(B²) rounds and single H·p field reach the
// spectral rounds' block means, block maxima and every cell within
// 1e-12 K, in the same number of rounds. The answers are not
// bit-identical: G·p and H·p sum the blocks' contributions in another
// order than one transform of the summed spectrum.
func TestThermalOperatorMatchesSpectral(t *testing.T) {
	s := DefaultSolver()
	pm := power.Default()
	var worstMean, worstMax, worstCell float64
	for _, d := range fixtureDesigns()[:6] {
		op, err := s.NewOperator(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, vdd := range []float64{1.0, 1.1, 1.2, 1.3} {
			powerAt := func(temps []float64) ([]float64, error) { return pm.DesignPowers(d, vdd, temps) }
			got, err := s.SolveCoupledCtx(context.Background(), op, d, powerAt, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := spectralReference(s, d, powerAt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds != ref.Rounds {
				t.Errorf("%s @ %.1f V: %d rounds, spectral %d", d.Name, vdd, got.Rounds, ref.Rounds)
			}
			for i := range ref.BlockMean {
				worstMean = math.Max(worstMean, math.Abs(got.BlockMean[i]-ref.BlockMean[i]))
				worstMax = math.Max(worstMax, math.Abs(got.BlockMax[i]-ref.BlockMax[i]))
			}
			for c := range ref.Field.Temps {
				worstCell = math.Max(worstCell, math.Abs(got.Field.Temps[c]-ref.Field.Temps[c]))
			}
		}
	}
	t.Logf("worst |ΔBlockMean| %.2e K, |ΔBlockMax| %.2e K, |Δcell| %.2e K", worstMean, worstMax, worstCell)
	if worstMean > 1e-12 || worstMax > 1e-12 || worstCell > 1e-12 {
		t.Errorf("worst |ΔBlockMean| %.2e K, |ΔBlockMax| %.2e K, |Δcell| %.2e K, want ≤ 1e-12",
			worstMean, worstMax, worstCell)
	}
}

// TestOperatorValidate: a built operator validates, and each way a
// decoded one can be malformed is rejected.
func TestOperatorValidate(t *testing.T) {
	op, err := DefaultSolver().NewOperator(floorplan.C1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Validate(); err != nil {
		t.Fatalf("built operator: %v", err)
	}
	for name, mutate := range map[string]func(*Operator){
		"Nx=0":         func(o *Operator) { o.Nx = 0 },
		"Ny too large": func(o *Operator) { o.Ny = len(o.CellRise) + 1 },
		"B=0":          func(o *Operator) { o.B = 0 },
		"short H":      func(o *Operator) { o.CellRise = o.CellRise[1:] },
		"short G":      func(o *Operator) { o.MeanRise = o.MeanRise[1:] },
		"W=0":          func(o *Operator) { o.W = 0 },
		"H=Inf":        func(o *Operator) { o.H = math.Inf(1) },
		"NaN in H":     func(o *Operator) { o.CellRise[3] = math.NaN() },
		"Inf in G":     func(o *Operator) { o.MeanRise[0] = math.Inf(-1) },
	} {
		bad := *op
		bad.CellRise = append([]float64(nil), op.CellRise...)
		bad.MeanRise = append([]float64(nil), op.MeanRise...)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

// TestOperatorWorkersBitIdentical: the operator's columns are
// independent, so every worker count builds the same operator bit for
// bit.
func TestOperatorWorkersBitIdentical(t *testing.T) {
	for _, d := range fixtureDesigns() {
		serial, err := DefaultSolver().NewOperator(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 0} {
			got, err := DefaultSolver().NewOperator(d, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s: operator at %d workers differs from the serial build", d.Name, w)
			}
		}
	}
}
