package core

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/integrate"
)

// Hybrid is the fast analytical/table-lookup engine of Section IV-E.
// For each block a 2-D table of the double integral is precomputed
// over the (ln(t/α), b) plane — the only two quantities through which
// the operating condition enters Eq. 31 once the chip is designed.
// Reliability queries then reduce to N bilinear interpolations,
// giving the paper's additional 2 orders of magnitude speedup over
// st_fast, and letting one table serve many setup/application
// profiles (different temperatures and voltages only move the query
// point, not the table).
//
// The tables hold ln D_j, not D_j. At ppm levels D_j grows roughly
// like exp(b·u·L) across a cell, so interpolating D_j linearly
// overstates it (≈2% in lifetime at 100×100); its logarithm is close
// to linear in both axes.
type Hybrid struct {
	chip   *Chip
	tables []*integrate.Table2D
	// NL×NB is the table resolution (paper: 100×100); LMin..LMax and
	// BMin..BMax the covered ranges of ln(t/α) and b.
	NL, NB                 int
	LMin, LMax, BMin, BMax float64
}

// HybridOptions configures table construction. Zero values select the
// defaults: 100×100 entries, ln(t/α) ∈ [-40, 0], b spanning the
// chip's block parameters with 30% margin, and the st_fast default
// midpoint resolution for the entries the closed form misses.
type HybridOptions struct {
	NL, NB     int
	LMin, LMax float64
	BMin, BMax float64
	L0         int
	// Workers parallelizes the table fill (0 = GOMAXPROCS,
	// 1 = serial). Every entry is an independent double integral, so
	// the tables are bit-identical for every worker count.
	Workers int
}

// The fill stores ln max(D_j, dFloor) so the logarithm stays finite,
// and queries read an interpolant within logDFloorSlack of ln dFloor
// as D_j = 0.
const (
	dFloor         = 1e-300
	logDFloorSlack = 1e-9
)

var logDFloor = math.Log(dFloor)

// NewHybrid precomputes the per-block lookup tables of ln D_j.
func NewHybrid(c *Chip, opts HybridOptions) (*Hybrid, error) {
	if c == nil {
		return nil, errors.New("core: nil chip")
	}
	e := &Hybrid{chip: c, NL: opts.NL, NB: opts.NB,
		LMin: opts.LMin, LMax: opts.LMax, BMin: opts.BMin, BMax: opts.BMax}
	if e.NL <= 1 {
		e.NL = 100
	}
	if e.NB <= 1 {
		e.NB = 100
	}
	if e.LMin == 0 && e.LMax == 0 {
		e.LMin, e.LMax = -40, 0
	}
	if !(e.LMax > e.LMin) {
		return nil, fmt.Errorf("core: invalid hybrid L range [%v, %v]", e.LMin, e.LMax)
	}
	if e.BMin == 0 && e.BMax == 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range c.Params {
			if p.B < lo {
				lo = p.B
			}
			if p.B > hi {
				hi = p.B
			}
		}
		e.BMin, e.BMax = lo*0.7, hi*1.3
	}
	if !(e.BMax > e.BMin) || e.BMin <= 0 {
		return nil, fmt.Errorf("core: invalid hybrid b range [%v, %v]", e.BMin, e.BMax)
	}
	l0 := opts.L0
	if l0 <= 0 {
		l0 = DefaultL0
	}
	ls := integrate.Linspace(e.LMin, e.LMax, e.NL)
	bs := integrate.Linspace(e.BMin, e.BMax, e.NB)
	for j := range c.Char.Blocks {
		bi, err := newBlockIntegral(&c.Char.Blocks[j], l0)
		if err != nil {
			return nil, fmt.Errorf("core: block %q: %w", c.Char.Blocks[j].Name, err)
		}
		area := c.Char.Blocks[j].AJ
		// The 100×100 fill is one block integral per entry; its rows
		// fan out over the workers (the saturated corner falls back to
		// the midpoint rule, whose weights the first such entry builds
		// once for all workers).
		tab, err := integrate.NewTable2DWorkers(ls, bs, func(l, b float64) float64 {
			return math.Log(math.Max(bi.failureProb(l, b, area), dFloor))
		}, opts.Workers)
		if err != nil {
			return nil, err
		}
		e.tables = append(e.tables, tab)
	}
	return e, nil
}

// NewHybridFromTables reconstructs the engine from precomputed table
// data, as TableData returned it: ls/bs are the shared ln(t/α) and b
// axes and blocks the per-block row-major grids of ln D_j (floored at
// ln 1e-300). Nothing is copied; the caller keeps the slices
// immutable.
func NewHybridFromTables(c *Chip, ls, bs []float64, blocks [][]float64) (*Hybrid, error) {
	if c == nil {
		return nil, errors.New("core: nil chip")
	}
	if len(blocks) != len(c.Char.Blocks) {
		return nil, fmt.Errorf("core: %d tables for %d blocks", len(blocks), len(c.Char.Blocks))
	}
	if len(ls) < 2 || len(bs) < 2 {
		return nil, errors.New("core: hybrid table axes need at least 2 points")
	}
	e := &Hybrid{chip: c, NL: len(ls), NB: len(bs),
		LMin: ls[0], LMax: ls[len(ls)-1], BMin: bs[0], BMax: bs[len(bs)-1]}
	for j, vals := range blocks {
		tab, err := integrate.NewTable2DFromData(ls, bs, vals)
		if err != nil {
			return nil, fmt.Errorf("core: block %q table: %w", c.Char.Blocks[j].Name, err)
		}
		e.tables = append(e.tables, tab)
	}
	return e, nil
}

// TableData exposes the shared axes and per-block grids of ln D_j for
// serialization. The slices are the engine's live internals —
// read-only to callers.
func (e *Hybrid) TableData() (ls, bs []float64, blocks [][]float64) {
	if len(e.tables) == 0 {
		return nil, nil, nil
	}
	ls, bs, _ = e.tables[0].Data()
	blocks = make([][]float64, len(e.tables))
	for j, tab := range e.tables {
		_, _, blocks[j] = tab.Data()
	}
	return ls, bs, blocks
}

// Name implements Engine.
func (e *Hybrid) Name() string { return "hybrid" }

// FailureProb implements Engine: N bilinear table lookups of ln D_j at
// (ln(t/α_j), b_j), exponentiated and summed per Eq. 28.
func (e *Hybrid) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	sum := 0.0
	for j, tab := range e.tables {
		p := e.chip.Params[j]
		l := math.Log(t / p.Alpha)
		d := 0.0
		if l >= e.LMin {
			// Far below the tabulated range the intrinsic failure
			// probability is indistinguishable from zero.
			if lv := tab.At(l, p.B); lv > logDFloor+logDFloorSlack {
				d = math.Exp(lv)
			}
		}
		sum += combineFailure(d, e.chip.extrinsicHazard(j, t))
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}
