package core

import (
	"math"
	"math/rand"
	"testing"

	"obdrel/internal/mathx"
)

// bisectLifetime is the reference lifetime solve: the same bracket
// growth as LifetimeAt followed by plain bisection on P_fail − p down
// to a 1e-10 bracket on log t.
func bisectLifetime(e Engine, p, tLo, tHi float64) (float64, error) {
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
	Engine
	calls int
}

func (c *countingEngine) FailureProb(t float64) (float64, error) {
	c.calls++
	return c.Engine.FailureProb(t)
}

// targetRelErr is |P_fail(t)/p − 1|, how closely a solved lifetime
// hits its failure target.
func targetRelErr(t testing.TB, e Engine, life, p float64) float64 {
	t.Helper()
	q, err := e.FailureProb(life)
	if err != nil {
		t.Fatal(err)
	}
	return math.Abs(q/p - 1)
}

// TestLifetimeAtMatchesBisection: the Brent solve lands within 2e-10
// of the bisection answer in log t, hits the failure target at least as
// accurately, and needs at most 15 FailureProb calls, for every engine
// kind at the paper's ppm range.
func TestLifetimeAtMatchesBisection(t *testing.T) {
	fx := newFixture(t)
	fast, err := NewStFast(fx.chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	stmc, err := NewStMC(fx.chip, fx.pca, StMCOptions{Samples: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := NewHybrid(fx.chip, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := NewGuardBand(fx.chip, 3)
	if err != nil {
		t.Fatal(err)
	}
	aMin, aMax := fx.chip.AlphaRange()
	for _, e := range []Engine{fast, stmc, hyb, guard} {
		for _, ppm := range []float64{0.1, 1, 10, 100, 1e3, 1e5} {
			p := PPMTarget(ppm)
			ce := &countingEngine{Engine: e}
			got, err := LifetimeAt(ce, p, aMin*1e-15, aMax)
			if err != nil {
				t.Fatalf("%s @%v ppm: %v", e.Name(), ppm, err)
			}
			want, err := bisectLifetime(e, p, aMin*1e-15, aMax)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(math.Log(got / want)); d > 2e-10 {
				t.Errorf("%s @%v ppm: |log t − log t_bisect| = %.3g", e.Name(), ppm, d)
			}
			if ce.calls > 15 {
				t.Errorf("%s @%v ppm: %d FailureProb calls, want ≤ 15", e.Name(), ppm, ce.calls)
			}
			if eb, er := targetRelErr(t, e, got, p), targetRelErr(t, e, want, p); eb > math.Max(er, targetErrFloor) {
				t.Errorf("%s @%v ppm: target error %.3g, bisection's %.3g", e.Name(), ppm, eb, er)
			}
		}
	}
}

// targetErrFloor is the relative precision P_fail itself is evaluated
// to: below it, comparing two solvers' target errors measures rounding.
const targetErrFloor = 1e-14

// TestSampleFailureTimesMatchesBisection: every MC failure-time draw
// stays within 1e-9 in log t of a plain bisection of the same sample's
// survival at the same variate.
func TestSampleFailureTimesMatchesBisection(t *testing.T) {
	fx := newFixture(t)
	mc, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 50, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const count, seed = 200, 11
	got, err := mc.SampleFailureTimes(count, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := mcBisectFailureTimes(t, mc, count, seed)
	for k := range got {
		if d := math.Abs(math.Log(got[k] / want[k])); d > 1e-9 {
			t.Errorf("draw %d: |log t − log t_bisect| = %.3g", k, d)
		}
	}
}

// mcBisectFailureTimes replays SampleFailureTimes' draws with plain
// bisection on S(t) − target at 1e-9, the reference inversion.
func mcBisectFailureTimes(t *testing.T, e *MonteCarlo, count int, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := e.chip.NumBlocks()
	aMin, aMax := e.chip.AlphaRange()
	ls := make([]float64, n)
	out := make([]float64, count)
	for k := range out {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		h := e.hists[k%len(e.hists)]
		target := -math.Log(u)
		f := func(logT float64) float64 {
			ext := 0.0
			for j := 0; j < n; j++ {
				ls[j] = logT - math.Log(e.chip.Params[j].Alpha)
				ext += e.chip.extrinsicHazard(j, math.Exp(logT))
			}
			return e.exponent(h, ls, ext) - target
		}
		lo := math.Log(aMin) - 40*math.Ln10
		hi := math.Log(aMax) + 4*math.Ln10
		for f(hi) < 0 {
			hi += 2 * math.Ln10
		}
		x, err := mathx.Bisect(f, lo, hi, 1e-9, 200)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = math.Exp(x)
	}
	return out
}
