package thermal

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/floorplan"
	"obdrel/internal/par"
)

// Operator is a die's linear thermal response under one solver's grid
// and conductances. The temperature rise over ambient is linear in the
// block powers, ΔT = H·p, and H depends only on the die geometry, Nx,
// Ny, GVertical and GLateral — not on the voltage, the activity, the
// leakage model or TAmbient — so one operator serves every operating
// point of a design.
type Operator struct {
	Nx, Ny int
	W, H   float64
	// B is the number of design blocks.
	B int
	// CellRise is H: for each block j, the Nx·Ny cell rises (K) per
	// watt in block j, row-major like Field.Temps, stored block after
	// block: CellRise[j*Nx*Ny + iy*Nx + ix].
	CellRise []float64
	// MeanRise is G, the block-mean rows of H: MeanRise[i*B+j] is
	// block i's area-weighted mean rise (K) per watt in block j.
	MeanRise []float64
}

// NewOperator builds the die's operator from the cosine basis
// (spectral.go): per block, one unit load and one inverse transform
// give its column of H, and the block means of that column give its
// column of G. The cost is O(B·Nx·Ny·(Nx+Ny)), paid once per design.
// The columns are independent, so they build over workers goroutines
// (0 selects GOMAXPROCS) with the same result at every count.
func (s *Solver) NewOperator(d *floorplan.Design, workers int) (*Operator, error) {
	m, err := s.newSpectral(d)
	if err != nil {
		return nil, err
	}
	cells, nb := s.Nx*s.Ny, len(d.Blocks)
	op := &Operator{
		Nx: s.Nx, Ny: s.Ny, W: d.W, H: d.H, B: nb,
		CellRise: make([]float64, nb*cells),
		MeanRise: make([]float64, nb*nb),
	}
	for j := range d.Blocks {
		if m.blocks[j].wsum == 0 {
			return nil, fmt.Errorf("thermal: block %q overlaps no thermal cells", d.Blocks[j].Name)
		}
	}
	par.For(workers, nb, func(j int) {
		hat, tmp := make([]float64, cells), make([]float64, cells)
		m.unitLoad(j, hat)
		col := &Field{Nx: s.Nx, Ny: s.Ny, W: d.W, H: d.H, Temps: op.CellRise[j*cells : (j+1)*cells]}
		m.inverse(hat, tmp, col.Temps)
		// Every block overlaps a cell (checked above), and the scratch
		// lengths match, so BlockTempsInto cannot fail.
		mean, blockMax := make([]float64, nb), make([]float64, nb)
		_ = col.BlockTempsInto(d, mean, blockMax)
		for i, v := range mean {
			op.MeanRise[i*nb+j] = v
		}
	})
	return op, nil
}

// Validate checks that the operator's shape is consistent and every
// entry finite — what a decoded operator must satisfy before a solve
// indexes it.
func (op *Operator) Validate() error {
	n := len(op.CellRise)
	if op.Nx <= 0 || op.Ny <= 0 || op.B <= 0 || op.Nx > n || op.Ny > n || op.B > n ||
		n%op.B != 0 || n/op.B != op.Nx*op.Ny || len(op.MeanRise) != op.B*op.B || !(op.W > 0) || !(op.H > 0) {
		return fmt.Errorf("thermal: operator %dx%d over a %v×%v die, %d blocks, %d/%d entries",
			op.Nx, op.Ny, op.W, op.H, op.B, n, len(op.MeanRise))
	}
	for _, vs := range [][]float64{{op.W, op.H}, op.CellRise, op.MeanRise} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return errors.New("thermal: operator entry not finite")
			}
		}
	}
	return nil
}

// SizeBytes charges the operator against the stage cache's per-stage
// byte budget.
func (op *Operator) SizeBytes() int64 {
	return 8 * int64(len(op.CellRise)+len(op.MeanRise))
}

// blockMeans writes every block's mean temperature at the given
// powers: T_amb + G·p, O(B²).
func (op *Operator) blockMeans(tAmb float64, powers, mean []float64) {
	for i := range mean {
		row := op.MeanRise[i*op.B : (i+1)*op.B]
		row = row[:len(powers)]
		acc := 0.0
		for j, p := range powers {
			acc += row[j] * p
		}
		mean[i] = tAmb + acc
	}
}

// field returns the temperature field at the given powers:
// T_amb + H·p.
func (op *Operator) field(tAmb float64, powers []float64) *Field {
	temps := make([]float64, op.Nx*op.Ny)
	combine(temps, powers, op.CellRise)
	for c := range temps {
		temps[c] += tAmb
	}
	return &Field{Nx: op.Nx, Ny: op.Ny, W: op.W, H: op.H, Temps: temps, Iterations: 1}
}
