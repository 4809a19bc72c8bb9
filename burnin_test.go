package obdrel_test

import (
	"math"
	"testing"

	"obdrel"
	"obdrel/internal/obd"
)

// extrinsicConfig returns a fast config with a defect population
// scaled to matter on the C1 benchmark.
func extrinsicConfig() *obdrel.Config {
	cfg := fastConfig()
	e := obd.DefaultExtrinsic()
	e.DefectFraction = 2e-6
	cfg.Extrinsic = e
	return cfg
}

func TestExtrinsicConfigShortensEarlyLife(t *testing.T) {
	anInt, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	anExt, err := obdrel.NewAnalyzer(obdrel.C1(), extrinsicConfig())
	if err != nil {
		t.Fatal(err)
	}
	tInt, err := anInt.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	tExt, err := anExt.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if !(tExt < tInt/5) {
		t.Errorf("defect population did not shorten the ppm lifetime: %v vs %v", tExt, tInt)
	}
	// And the engines still agree on the bimodal population.
	rows, err := anExt.CompareMethods(10, []obdrel.Method{obdrel.MethodStFast, obdrel.MethodHybrid})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if e := math.Abs(r.ErrVsMCPct); e > 7 {
			t.Errorf("%v bimodal error vs MC %.2f%%", r.Method, e)
		}
	}
}

func TestBurnInFacade(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), extrinsicConfig())
	if err != nil {
		t.Fatal(err)
	}
	unscreened, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	// 24 hours at 1.6 V / 125 °C.
	res, err := an.BurnIn(1.6, 125, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Fallout > 0 && res.Fallout < 0.2) {
		t.Errorf("fallout = %v", res.Fallout)
	}
	if len(res.IntrinsicEqHours) != len(an.Blocks()) {
		t.Fatal("missing per-block equivalent hours")
	}
	// The extrinsic acceleration exceeds intrinsic at this stress?
	// Not necessarily — but both must be positive and finite.
	for i := range res.IntrinsicEqHours {
		if !(res.IntrinsicEqHours[i] > 0) || !(res.ExtrinsicEqHours[i] > 0) {
			t.Fatalf("non-positive equivalent hours at block %d", i)
		}
	}
	screened, err := res.LifetimePPM(10)
	if err != nil {
		t.Fatal(err)
	}
	if !(screened > unscreened) {
		t.Errorf("burn-in did not help a defect-dominated population: %v vs %v", screened, unscreened)
	}
	if _, err := an.BurnIn(1.6, 125, -5); err == nil {
		t.Error("negative duration should error")
	}
}

func TestBurnInIntrinsicOnlyHurts(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.BurnIn(1.6, 125, 24)
	if err != nil {
		t.Fatal(err)
	}
	screened, err := res.LifetimePPM(10)
	if err != nil {
		t.Fatal(err)
	}
	if !(screened < base) {
		t.Errorf("intrinsic-only burn-in should cost lifetime: %v vs %v", screened, base)
	}
}
