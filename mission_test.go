package obdrel_test

import (
	"context"
	"math"
	"testing"

	"obdrel"
)

func TestMissionSingleModeMatchesAnalyzer(t *testing.T) {
	cfg := fastConfig()
	plain, err := obdrel.NewAnalyzer(obdrel.C1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mission, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, []obdrel.Mode{
		{Name: "nominal", VDD: 1.2, ActivityScale: 1, Fraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lPlain, err := plain.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	lMission, err := mission.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lPlain, lMission, 1e-9) {
		t.Errorf("single-mode mission %v differs from plain analyzer %v", lMission, lPlain)
	}
}

func TestMissionBetweenPureModes(t *testing.T) {
	cfg := fastConfig()
	idle := obdrel.Mode{Name: "idle", VDD: 1.0, ActivityScale: 0.3, Fraction: 1}
	turbo := obdrel.Mode{Name: "turbo", VDD: 1.3, ActivityScale: 1, Fraction: 1}
	life := func(modes []obdrel.Mode) float64 {
		an, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, modes)
		if err != nil {
			t.Fatal(err)
		}
		l, err := an.LifetimePPM(10, obdrel.MethodStFast)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	lIdle := life([]obdrel.Mode{idle})
	lTurbo := life([]obdrel.Mode{turbo})
	mixIdle, mixTurbo := idle, turbo
	mixIdle.Fraction, mixTurbo.Fraction = 0.5, 0.5
	lMix := life([]obdrel.Mode{mixIdle, mixTurbo})
	if !(lTurbo < lMix && lMix < lIdle) {
		t.Fatalf("mix %v not between turbo %v and idle %v", lMix, lTurbo, lIdle)
	}
	// Linear damage: the mix is dominated by the turbo mode; the
	// effective lifetime is close to lTurbo/fraction (up to the
	// Weibull-slope nonlinearity), far below the arithmetic mean.
	if lMix > (lIdle+lTurbo)/4 {
		t.Errorf("mix %v suspiciously close to the arithmetic mean of %v and %v", lMix, lIdle, lTurbo)
	}
	if lMix > 4*lTurbo {
		t.Errorf("50%% turbo mix %v more than 4× pure turbo %v", lMix, lTurbo)
	}
}

func TestMissionMonotoneInTurboShare(t *testing.T) {
	cfg := fastConfig()
	prev := math.Inf(1)
	for _, turboFrac := range []float64{0.1, 0.4, 0.8} {
		an, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, []obdrel.Mode{
			{Name: "idle", VDD: 1.0, ActivityScale: 0.3, Fraction: 1 - turboFrac},
			{Name: "turbo", VDD: 1.3, ActivityScale: 1, Fraction: turboFrac},
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := an.LifetimePPM(10, obdrel.MethodStFast)
		if err != nil {
			t.Fatal(err)
		}
		if !(l < prev) {
			t.Fatalf("lifetime %v did not fall as turbo share rose to %v", l, turboFrac)
		}
		prev = l
	}
}

func TestMissionBlockReport(t *testing.T) {
	cfg := fastConfig()
	an, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, []obdrel.Mode{
		{Name: "lo", VDD: 1.0, ActivityScale: 0.5, Fraction: 0.7},
		{Name: "hi", VDD: 1.3, ActivityScale: 1, Fraction: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range an.Blocks() {
		if !(b.Alpha > 0) || !(b.B > 0) || !(b.PowerW > 0) {
			t.Fatalf("implausible mission block report %+v", b)
		}
		if b.MaxTempC < b.MeanTempC {
			t.Fatalf("block %s: max temp below weighted mean", b.Name)
		}
	}
	// The temperature field must be present (highest-power mode).
	nx, ny, temps := an.TemperatureField()
	if nx*ny != len(temps) || len(temps) == 0 {
		t.Fatal("missing mission temperature field")
	}
}

func TestMissionWithExtrinsic(t *testing.T) {
	cfg := extrinsicConfig()
	an, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, []obdrel.Mode{
		{Name: "lo", VDD: 1.0, ActivityScale: 0.5, Fraction: 0.5},
		{Name: "hi", VDD: 1.3, ActivityScale: 1, Fraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The defect population must still dominate early life.
	intCfg := fastConfig()
	anInt, err := obdrel.NewMissionAnalyzer(obdrel.C1(), intCfg, []obdrel.Mode{
		{Name: "lo", VDD: 1.0, ActivityScale: 0.5, Fraction: 0.5},
		{Name: "hi", VDD: 1.3, ActivityScale: 1, Fraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	lExt, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	lInt, err := anInt.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if !(lExt < lInt) {
		t.Errorf("extrinsic mission lifetime %v not below intrinsic %v", lExt, lInt)
	}
}

func TestMissionValidation(t *testing.T) {
	cfg := fastConfig()
	cases := []struct {
		name  string
		modes []obdrel.Mode
	}{
		{"empty", nil},
		{"fractions", []obdrel.Mode{{Name: "a", VDD: 1.2, ActivityScale: 1, Fraction: 0.6}}},
		{"zero vdd", []obdrel.Mode{{Name: "a", VDD: 0, ActivityScale: 1, Fraction: 1}}},
		{"negative scale", []obdrel.Mode{{Name: "a", VDD: 1.2, ActivityScale: -1, Fraction: 1}}},
		{"zero fraction", []obdrel.Mode{
			{Name: "a", VDD: 1.2, ActivityScale: 1, Fraction: 0},
			{Name: "b", VDD: 1.2, ActivityScale: 1, Fraction: 1},
		}},
	}
	for _, c := range cases {
		if _, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, c.modes); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMissionValidationEdgeCases(t *testing.T) {
	cfg := fastConfig()
	cases := []struct {
		name  string
		modes []obdrel.Mode
	}{
		{"nan vdd", []obdrel.Mode{{Name: "a", VDD: math.NaN(), ActivityScale: 1, Fraction: 1}}},
		{"nan fraction", []obdrel.Mode{{Name: "a", VDD: 1.2, ActivityScale: 1, Fraction: math.NaN()}}},
		{"fractions sum high", []obdrel.Mode{
			{Name: "a", VDD: 1.2, ActivityScale: 1, Fraction: 0.9},
			{Name: "b", VDD: 1.0, ActivityScale: 1, Fraction: 0.6},
		}},
		{"fraction above one", []obdrel.Mode{{Name: "a", VDD: 1.2, ActivityScale: 1, Fraction: 1.5}}},
		{"negative vdd", []obdrel.Mode{{Name: "a", VDD: -1.2, ActivityScale: 1, Fraction: 1}}},
		{"inf vdd", []obdrel.Mode{{Name: "a", VDD: math.Inf(1), ActivityScale: 1, Fraction: 1}}},
		{"nan activity", []obdrel.Mode{{Name: "a", VDD: 1.2, ActivityScale: math.NaN(), Fraction: 1}}},
		{"inf activity", []obdrel.Mode{{Name: "a", VDD: 1.2, ActivityScale: math.Inf(1), Fraction: 1}}},
	}
	for _, c := range cases {
		if _, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, c.modes); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestMissionResolvesThroughStageCache: a mission's per-mode thermal
// solves and its hybrid tables are stage artifacts, so an identical
// second mission builds neither.
func TestMissionResolvesThroughStageCache(t *testing.T) {
	cfg := fastConfig()
	cfg.GridNx, cfg.GridNy = 7, 7 // keys no other test in the package builds
	modes := []obdrel.Mode{
		{Name: "lo", VDD: 1.05, ActivityScale: 0.45, Fraction: 0.25},
		{Name: "hi", VDD: 1.27, ActivityScale: 0.95, Fraction: 0.75},
	}
	builds := func() map[string]int64 {
		out := map[string]int64{}
		for _, s := range obdrel.Stages().Snapshot() {
			out[s.Stage] = s.Builds
		}
		return out
	}
	mission := func() map[string]int64 {
		before := builds()
		an, err := obdrel.NewMissionAnalyzer(obdrel.C3(), cfg, modes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := an.LifetimePPM(10, obdrel.MethodHybrid); err != nil {
			t.Fatal(err)
		}
		delta := builds()
		for stage, n := range before {
			delta[stage] -= n
		}
		return delta
	}
	first := mission()
	if first[obdrel.StageThermal] != 2 || first[obdrel.StageHybrid] != 1 {
		t.Fatalf("first mission built %d thermal and %d hybrid artifacts, want 2 and 1 (%v)",
			first[obdrel.StageThermal], first[obdrel.StageHybrid], first)
	}
	second := mission()
	if second[obdrel.StageThermal] != 0 || second[obdrel.StageHybrid] != 0 {
		t.Fatalf("identical second mission built %d thermal and %d hybrid artifacts, want none (%v)",
			second[obdrel.StageThermal], second[obdrel.StageHybrid], second)
	}
}

func TestTraceValidation(t *testing.T) {
	seg := func(h, v, a, temp float64) obdrel.Segment {
		return obdrel.Segment{Hours: h, VDD: v, ActivityScale: a, TempC: temp}
	}
	bad := []struct {
		name string
		tr   obdrel.Trace
	}{
		{"empty", nil},
		{"zero hours", obdrel.Trace{seg(0, 1.2, 1, 55)}},
		{"negative hours", obdrel.Trace{seg(-10, 1.2, 1, 55)}},
		{"inf hours", obdrel.Trace{seg(math.Inf(1), 1.2, 1, 55)}},
		{"nan hours", obdrel.Trace{seg(math.NaN(), 1.2, 1, 55)}},
		{"zero vdd", obdrel.Trace{seg(100, 0, 1, 55)}},
		{"nan vdd", obdrel.Trace{seg(100, math.NaN(), 1, 55)}},
		{"inf vdd", obdrel.Trace{seg(100, math.Inf(1), 1, 55)}},
		{"negative activity", obdrel.Trace{seg(100, 1.2, -0.5, 55)}},
		{"nan activity", obdrel.Trace{seg(100, 1.2, math.NaN(), 55)}},
		{"nan temp", obdrel.Trace{seg(100, 1.2, 1, math.NaN())}},
		{"inf temp", obdrel.Trace{seg(100, 1.2, 1, math.Inf(1))}},
		{"temp too hot", obdrel.Trace{seg(100, 1.2, 1, 300)}},
		{"temp too cold", obdrel.Trace{seg(100, 1.2, 1, -150)}},
		{"total hours overflow", obdrel.Trace{seg(1e308, 1.2, 1, 55), seg(1e308, 1.2, 1, 55)}},
		{"second segment bad", obdrel.Trace{seg(100, 1.2, 1, 55), seg(100, -1, 1, 55)}},
	}
	for _, c := range bad {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
		if _, err := obdrel.NewTraceAnalyzerCtx(context.Background(), obdrel.C1(), fastConfig(), c.tr); err == nil {
			t.Errorf("%s: NewTraceAnalyzer accepted an invalid trace", c.name)
		}
	}
	good := []obdrel.Trace{
		{seg(100, 1.2, 1, 0)},   // solved segment: TempC 0 means "solve it"
		{seg(100, 1.2, 0, 55)},  // zero activity is legal (idle)
		{seg(100, 1.2, 1, -40)}, // cold but in range
		{seg(1, 1.0, 1, 55), seg(1, 1.3, 1, 85)},
	}
	for i, tr := range good {
		if err := tr.Validate(); err != nil {
			t.Errorf("good trace %d rejected: %v", i, err)
		}
	}
}

// TestTraceMatchesMission pins the Miner's-rule equivalence: a trace
// whose hour shares equal a mission profile's fractions, with solved
// temperatures, must produce the bit-identical lifetime.
func TestTraceMatchesMission(t *testing.T) {
	cfg := fastConfig()
	mission, err := obdrel.NewMissionAnalyzer(obdrel.C1(), cfg, []obdrel.Mode{
		{Name: "lo", VDD: 1.0, ActivityScale: 0.4, Fraction: 0.4},
		{Name: "hi", VDD: 1.3, ActivityScale: 1, Fraction: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := obdrel.NewTraceAnalyzerCtx(context.Background(), obdrel.C1(), cfg, obdrel.Trace{
		{Hours: 4000, VDD: 1.0, ActivityScale: 0.4},
		{Hours: 6000, VDD: 1.3, ActivityScale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lMission, err := mission.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	lTrace, err := trace.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if lMission != lTrace {
		t.Errorf("trace lifetime %v differs from equivalent mission %v", lTrace, lMission)
	}
}

// TestTraceMeasuredTemps drives the sensor path: measured segments
// skip the thermal solve, and hotter telemetry must age faster.
func TestTraceMeasuredTemps(t *testing.T) {
	cfg := fastConfig()
	life := func(temp float64) float64 {
		an, err := obdrel.NewTraceAnalyzerCtx(context.Background(), obdrel.C1(), cfg, obdrel.Trace{
			{Hours: 8760, VDD: 1.2, ActivityScale: 1, TempC: temp},
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := an.LifetimePPM(10, obdrel.MethodStFast)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cool, hot := life(55), life(95)
	if !(hot < cool) {
		t.Fatalf("95°C trace lifetime %v not below 55°C lifetime %v", hot, cool)
	}
	// Mixed measured + solved segments must also work end to end.
	an, err := obdrel.NewTraceAnalyzerCtx(context.Background(), obdrel.C1(), cfg, obdrel.Trace{
		{Hours: 4000, VDD: 1.2, ActivityScale: 1, TempC: 72},
		{Hours: 4000, VDD: 1.2, ActivityScale: 1}, // solved
	})
	if err != nil {
		t.Fatal(err)
	}
	if l, err := an.LifetimePPM(10, obdrel.MethodStFast); err != nil || !(l > 0) {
		t.Fatalf("mixed trace lifetime = %v, %v", l, err)
	}
	nx, ny, temps := an.TemperatureField()
	if nx*ny != len(temps) || len(temps) == 0 {
		t.Fatal("mixed trace must keep a temperature field")
	}
}
