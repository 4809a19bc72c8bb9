package obdrel

import (
	"fmt"
	"math"
	"testing"

	"obdrel/internal/core"
	"obdrel/internal/mathx"
)

// bisectLifetime is the reference lifetime solve: core.LifetimeAt's
// bracket growth followed by plain bisection on P_fail − p down to a
// 1e-10 bracket on log t.
func bisectLifetime(e core.Engine, p, tLo, tHi float64) (float64, error) {
	f := func(x float64) float64 {
		q, err := e.FailureProb(math.Exp(x))
		if err != nil {
			return math.NaN()
		}
		return q - p
	}
	lo, hi := math.Log(tLo), math.Log(tHi)
	for grow := 0; f(lo) > 0 && grow < 60; grow++ {
		hi, lo = lo, lo-math.Ln10
	}
	for grow := 0; f(hi) < 0 && grow < 60; grow++ {
		lo, hi = hi, hi+math.Ln10
	}
	x, err := mathx.Bisect(f, lo, hi, 1e-10, 200)
	return math.Exp(x), err
}

// countingEngine counts FailureProb calls through any engine.
type countingEngine struct {
	core.Engine
	calls int
}

func (c *countingEngine) FailureProb(t float64) (float64, error) {
	c.calls++
	return c.Engine.FailureProb(t)
}

// TestLifetimeSolverDesigns holds the lifetime solve to its contract on
// every paper design and every engine the serving path solves with:
// within 2e-10 of bisection in log t, at least as close to the failure
// target (down to the 1e-14 precision P_fail is evaluated to), and at
// most 15 FailureProb calls, at 0.1 to 1e5 ppm.
func TestLifetimeSolverDesigns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridNx, cfg.GridNy = 8, 8
	cfg.StMCSamples = 1000
	// Coarse hybrid tables: the solve, not the table fill, is under test.
	cfg.HybridNL, cfg.HybridNB = 30, 30
	for i, d := range []*Design{C1(), C2(), C3(), C4(), C5(), C6()} {
		a, err := NewAnalyzer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		aMin, aMax := a.chip.AlphaRange()
		for _, m := range []Method{MethodStFast, MethodHybrid, MethodGuard, MethodStMC} {
			e, err := a.engine(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, ppm := range []float64{0.1, 1, 10, 100, 1e3, 1e5} {
				name := fmt.Sprintf("C%d/%v@%vppm", i+1, m, ppm)
				p := core.PPMTarget(ppm)
				ce := &countingEngine{Engine: e}
				got, err := core.LifetimeAt(ce, p, aMin*1e-15, aMax)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := bisectLifetime(e, p, aMin*1e-15, aMax)
				if err != nil {
					t.Fatalf("%s: bisection: %v", name, err)
				}
				if d := math.Abs(math.Log(got / want)); d > 2e-10 {
					t.Errorf("%s: |log t − log t_bisect| = %.3g", name, d)
				}
				if ce.calls > 15 {
					t.Errorf("%s: %d FailureProb calls, want ≤ 15", name, ce.calls)
				}
				pg, err := e.FailureProb(got)
				if err != nil {
					t.Fatal(err)
				}
				pw, err := e.FailureProb(want)
				if err != nil {
					t.Fatal(err)
				}
				if eg, ew := math.Abs(pg/p-1), math.Abs(pw/p-1); eg > math.Max(ew, 1e-14) {
					t.Errorf("%s: target error %.3g, bisection's %.3g", name, eg, ew)
				}
			}
		}
	}
}
