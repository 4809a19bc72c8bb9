package obdrel_test

import (
	"math"
	"testing"

	"obdrel"
	"obdrel/internal/grid"
)

func TestQuadTreeConfig(t *testing.T) {
	cfg := fastConfig()
	cfg.QuadTree = true
	cfg.QuadTreeLevels = 2
	an, err := obdrel.NewAnalyzer(obdrel.C1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Full accuracy story must hold under the quad-tree structure.
	rows, err := an.CompareMethods(10, []obdrel.Method{obdrel.MethodStFast, obdrel.MethodGuard})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Method {
		case obdrel.MethodStFast:
			if math.Abs(r.ErrVsMCPct) > 6 {
				t.Errorf("quad-tree st_fast error %.2f%%", r.ErrVsMCPct)
			}
		case obdrel.MethodGuard:
			if r.ErrVsMCPct > -25 {
				t.Errorf("quad-tree guard error %.2f%%, want pessimistic", r.ErrVsMCPct)
			}
		}
	}
}

func TestWaferPatternConfig(t *testing.T) {
	mk := func(dieX, bowl float64) *obdrel.Analyzer {
		cfg := fastConfig()
		cfg.WaferPattern = &grid.WaferPattern{DieX: dieX, DieSpan: 0.25, Bowl: bowl}
		an, err := obdrel.NewAnalyzer(obdrel.C1(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	thick := mk(0.9, 0.04) // edge die under a bowl: thicker oxide
	thin := mk(0.9, -0.04) // inverted bowl: thinner oxide
	lThick, err := thick.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	lThin, err := thin.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if !(lThick > lThin) {
		t.Errorf("thick-die lifetime %v not above thin-die %v", lThick, lThin)
	}
	// And st_fast must still track MC with the pattern active.
	rows, err := thin.CompareMethods(10, []obdrel.Method{obdrel.MethodStFast})
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(rows[0].ErrVsMCPct); e > 6 {
		t.Errorf("pattern st_fast error %.2f%%", e)
	}
}

func TestBreakdownToleranceFacade(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := an.LifetimePPM(10, obdrel.MethodMC)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := an.LifetimePPMTolerant(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(k1, base, 1e-9) {
		t.Errorf("k=1 tolerant lifetime %v differs from MC %v", k1, base)
	}
	k3, err := an.LifetimePPMTolerant(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(k3 > 5*base) {
		t.Errorf("k=3 lifetime %v not well beyond base %v", k3, base)
	}
	if _, err := an.LifetimePPMTolerant(10, 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestFitWeibullFacade(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	times, err := an.SampleFailureTimes(3000)
	if err != nil {
		t.Fatal(err)
	}
	scale, shape, r2, err := obdrel.FitWeibull(times)
	if err != nil {
		t.Fatal(err)
	}
	if !(scale > 0) || !(shape > 0.5 && shape < 2.5) {
		t.Errorf("implausible chip-level Weibull: scale %v shape %v", scale, shape)
	}
	if r2 < 0.95 {
		t.Errorf("chip failure population fit R² = %v", r2)
	}
	if _, _, _, err := obdrel.FitWeibull(nil); err == nil {
		t.Error("empty sample should error")
	}
}
