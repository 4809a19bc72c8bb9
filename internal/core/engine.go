package core

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/mathx"
)

// Engine is a full-chip OBD reliability analysis.
type Engine interface {
	// Name identifies the method (st_fast, st_MC, hybrid, guard, MC).
	Name() string
	// FailureProb returns P_fail(t) = 1 - R(t), the probability that a
	// chip from the ensemble has suffered at least one oxide breakdown
	// by time t (hours). Computed in failure space for ppm precision.
	FailureProb(t float64) (float64, error)
}

// PPMTarget converts an n-faults-per-million-parts criterion into the
// failure-probability target n·10⁻⁶ (Section V).
func PPMTarget(n float64) float64 { return n * 1e-6 }

// lifetimeObjective is g(x) = log P_fail(eˣ) − log pTarget, the
// function LifetimeAt solves. Weibull-type failure makes log P_fail
// near-linear in log t, so Brent's interpolation steps converge in a
// handful of evaluations. A P_fail that underflows to zero maps to
// −Inf, keeping the sign of P_fail − pTarget everywhere, and an engine
// error maps to NaN.
//
// It is a struct evaluator rather than a closure: capturing the engine
// in a func value forces a heap allocation per query, and this sits on
// the warm /v1/lifetime hot path, which is gated at zero allocations.
type lifetimeObjective struct {
	e       Engine
	logPTgt float64
}

func (o lifetimeObjective) Eval(logT float64) float64 {
	p, err := o.e.FailureProb(math.Exp(logT))
	if err != nil {
		return math.NaN()
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p) - o.logPTgt
}

// lifetimeTol is the final bracket width on log t of the lifetime
// solve, and lifetimeMaxIter its evaluation cap.
const (
	lifetimeTol     = 1e-10
	lifetimeMaxIter = 200
)

// LifetimeAt solves P_fail(t) = pTarget for t with a bracketed Brent
// search (mathx.Brent) on log t, bracketing from the chip's α range:
// breakdown physics guarantees P_fail is monotone in t. tLo and tHi
// seed the bracket and are grown if needed.
//
// The answer lies within 1e-10 of the root in log t. It is a pure
// function of the engine, so the library, unary, batch and peer-served
// paths return bit-identical lifetimes for the same inputs. The solve
// does not allocate: the objective is a struct evaluator passed to the
// generic solver, not a closure.
func LifetimeAt(e Engine, pTarget, tLo, tHi float64) (float64, error) {
	if !(pTarget > 0) || pTarget >= 1 {
		return 0, fmt.Errorf("core: failure target must be in (0,1), got %v", pTarget)
	}
	if !(tLo > 0) || !(tHi > tLo) {
		return 0, fmt.Errorf("core: invalid lifetime bracket [%v, %v]", tLo, tHi)
	}
	g := lifetimeObjective{e: e, logPTgt: math.Log(pTarget)}
	lo, hi := math.Log(tLo), math.Log(tHi)
	flo, fhi := g.Eval(lo), g.Eval(hi)
	// Grow the bracket geometrically if the target is outside it.
	for grow := 0; flo > 0 && grow < 60; grow++ {
		hi, fhi = lo, flo
		lo -= math.Ln10
		flo = g.Eval(lo)
	}
	for grow := 0; fhi < 0 && grow < 60; grow++ {
		lo, flo = hi, fhi
		hi += math.Ln10
		fhi = g.Eval(hi)
	}
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, errors.New("core: engine returned NaN during lifetime search")
	}
	if flo > 0 || fhi < 0 {
		return 0, fmt.Errorf("core: could not bracket the %v failure target", pTarget)
	}
	logT, err := mathx.Brent(g, lo, hi, flo, fhi, lifetimeTol, lifetimeMaxIter)
	if err != nil {
		return 0, fmt.Errorf("core: lifetime search: %w", err)
	}
	return math.Exp(logT), nil
}

// LifetimePPM is the convenience wrapper for the paper's
// n-faults-per-million criterion: it brackets using the chip's α
// range.
func LifetimePPM(e Engine, c *Chip, n float64) (float64, error) {
	aMin, aMax := c.AlphaRange()
	return LifetimeAt(e, PPMTarget(n), aMin*1e-15, aMax)
}
