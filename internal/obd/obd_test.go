package obd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"obdrel/internal/stats"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDefaultTechValidates(t *testing.T) {
	if err := DefaultTech().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTechValidateCatchesBadFields(t *testing.T) {
	mutations := []func(*Tech){
		func(x *Tech) { x.U0 = 0 },
		func(x *Tech) { x.Alpha0 = -1 },
		func(x *Tech) { x.VRef = 0 },
		func(x *Tech) { x.EaEV = -1 },
		func(x *Tech) { x.NV = -1 },
		func(x *Tech) { x.B0 = 0 },
		func(x *Tech) { x.CB = -1 },
	}
	for i, mut := range mutations {
		tech := DefaultTech()
		mut(tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestCharacterizeReference(t *testing.T) {
	tech := DefaultTech()
	p, err := tech.Characterize(tech.TRefC, tech.VRef)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Alpha, tech.Alpha0, 1e-12) {
		t.Errorf("α at reference = %v, want %v", p.Alpha, tech.Alpha0)
	}
	if !approx(p.B, tech.B0, 1e-12) {
		t.Errorf("b at reference = %v, want %v", p.B, tech.B0)
	}
	// β = b·u0 ≈ 1.32 at nominal thickness: the thin-oxide Weibull
	// slope the calibration targets.
	if beta := p.B * tech.U0; !approx(beta, 1.32, 1e-9) {
		t.Errorf("nominal β = %v", beta)
	}
}

func TestCharacterizeTemperatureAcceleration(t *testing.T) {
	tech := DefaultTech()
	cold, _ := tech.Characterize(45, 1.2)
	hot, _ := tech.Characterize(75, 1.2)
	hotter, _ := tech.Characterize(105, 1.2)
	if !(hot.Alpha < cold.Alpha && hotter.Alpha < hot.Alpha) {
		t.Errorf("α not decreasing with T: %v %v %v", cold.Alpha, hot.Alpha, hotter.Alpha)
	}
	// A ~30 K rise should cost several× in characteristic life
	// (Ea = 0.6 eV → ~5-8× around 45–75 °C), the order-of-magnitude
	// sensitivity the paper quotes from [7], [8].
	ratio := cold.Alpha / hot.Alpha
	if ratio < 3 || ratio > 15 {
		t.Errorf("30 K acceleration factor = %v, outside [3, 15]", ratio)
	}
	// b decreases mildly with T but stays positive.
	if !(hot.B < cold.B) || hot.B <= 0 {
		t.Errorf("b(T): %v → %v", cold.B, hot.B)
	}
}

func TestCharacterizeVoltageAcceleration(t *testing.T) {
	tech := DefaultTech()
	nom, _ := tech.Characterize(45, 1.2)
	high, _ := tech.Characterize(45, 1.32) // +10% overdrive
	if !(high.Alpha < nom.Alpha) {
		t.Error("α not decreasing with V")
	}
	// Power-law acceleration: (1.1)^32 ≈ 21×.
	if ratio := nom.Alpha / high.Alpha; !approx(ratio, math.Pow(1.1, 32), 1e-6) {
		t.Errorf("voltage acceleration = %v", ratio)
	}
}

func TestCharacterizeStressCondition(t *testing.T) {
	// At the Fig. 3 stress (3.1 V, 100 °C) a minimum-area nominal
	// device must break down on the 10³–10⁵ second scale.
	tech := DefaultTech()
	p, err := tech.Characterize(100, 3.1)
	if err != nil {
		t.Fatal(err)
	}
	medianH := p.SampleFailureTime(0.5, tech.U0, 1)
	medianS := medianH * 3600
	if medianS < 1e3 || medianS > 1e6 {
		t.Errorf("stress median failure time = %v s, outside the Fig. 3 scale", medianS)
	}
}

func TestCharacterizeBFloor(t *testing.T) {
	tech := DefaultTech()
	p, err := tech.Characterize(2000, 1.2) // absurdly hot
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.B, 0.25*tech.B0, 1e-12) {
		t.Errorf("b floor = %v, want %v", p.B, 0.25*tech.B0)
	}
}

func TestCharacterizeRejectsBadInputs(t *testing.T) {
	tech := DefaultTech()
	if _, err := tech.Characterize(45, 0); err == nil {
		t.Error("zero voltage should error")
	}
	if _, err := tech.Characterize(-300, 1.2); err == nil {
		t.Error("below absolute zero should error")
	}
	bad := *DefaultTech()
	bad.B0 = 0
	if _, err := bad.Characterize(45, 1.2); err == nil {
		t.Error("invalid tech should error")
	}
}

func TestReliabilityAxioms(t *testing.T) {
	p := Params{Alpha: 1e15, B: 0.6}
	if got := p.Reliability(0, 2.2, 1); got != 1 {
		t.Errorf("R(0) = %v", got)
	}
	if got := p.Reliability(-5, 2.2, 1); got != 1 {
		t.Errorf("R(-5) = %v", got)
	}
	prev := 1.0
	for _, tt := range []float64{1, 1e3, 1e6, 1e9, 1e12, 1e15, 1e18} {
		r := p.Reliability(tt, 2.2, 1)
		if r < 0 || r > 1 {
			t.Fatalf("R(%v) = %v outside [0,1]", tt, r)
		}
		if r > prev+1e-15 {
			t.Fatalf("R not monotone at %v", tt)
		}
		prev = r
	}
	// CDF complements reliability.
	if rc := p.Reliability(1e12, 2.2, 1) + p.FailureCDF(1e12, 2.2, 1); !approx(rc, 1, 1e-12) {
		t.Errorf("R + F = %v", rc)
	}
	if f := p.FailureCDF(-1, 2.2, 1); f != 0 {
		t.Errorf("F(-1) = %v", f)
	}
}

func TestThinnerOxideLessReliable(t *testing.T) {
	p := Params{Alpha: 1e15, B: 0.6}
	tq := 1e6 // well inside the t < α regime
	thick := p.Reliability(tq, 2.3, 1)
	nominal := p.Reliability(tq, 2.2, 1)
	thin := p.Reliability(tq, 2.1, 1)
	if !(thin < nominal && nominal < thick) {
		t.Errorf("thickness ordering violated: %v %v %v", thin, nominal, thick)
	}
}

func TestLargerAreaLessReliable(t *testing.T) {
	p := Params{Alpha: 1e15, B: 0.6}
	small := p.Reliability(1e6, 2.2, 1)
	big := p.Reliability(1e6, 2.2, 1000)
	if !(big < small) {
		t.Errorf("area ordering violated: %v vs %v", small, big)
	}
	// Weakest-link: R(a=2) = R(a=1)².
	if r2 := p.Reliability(1e6, 2.2, 2); !approx(r2, small*small, 1e-12) {
		t.Errorf("R(a=2) = %v, want %v", r2, small*small)
	}
}

func TestSampleFailureTimeInvertsCDF(t *testing.T) {
	p := Params{Alpha: 1e15, B: 0.6}
	for _, u := range []float64{1e-9, 1e-6, 0.01, 0.5, 0.99} {
		ts := p.SampleFailureTime(u, 2.2, 1)
		if got := p.FailureCDF(ts, 2.2, 1); !approx(got, u, 1e-9) {
			t.Errorf("F(T(%v)) = %v", u, got)
		}
	}
}

func TestSampleFailureTimeMatchesWeibull(t *testing.T) {
	// With x fixed, failure times follow Weibull(α·a^(-1/(bx)), bx).
	p := Params{Alpha: 100, B: 0.6}
	x, a := 2.2, 3.0
	w, err := stats.NewWeibull(100*math.Pow(a, -1/(0.6*2.2)), 0.6*2.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = p.SampleFailureTime(rng.Float64(), x, a)
	}
	e, err := stats.NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	if ks := e.KSDistance(w.CDF); ks > 0.012 {
		t.Errorf("failure-time sample KS distance %v", ks)
	}
}

// Property: reliability is monotone in each of (t, x, a) for random
// valid parameters.
func TestReliabilityMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{Alpha: math.Pow(10, 5+10*rng.Float64()), B: 0.3 + rng.Float64()}
		x := 1.5 + rng.Float64()
		a := 1 + 100*rng.Float64()
		tq := p.Alpha * math.Pow(10, -8+6*rng.Float64())
		r := p.Reliability(tq, x, a)
		return p.Reliability(tq*2, x, a) <= r+1e-15 &&
			p.Reliability(tq, x-0.1, a) <= r+1e-15 &&
			p.Reliability(tq, x, a*2) <= r+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Reliability returns R(t | x) = exp(-a·(t/α)^(b·x)) for a device of
// normalized area a and oxide thickness x nm (Eq. 9), the closed form
// the sampler and the device-model properties are checked against.
func (p Params) Reliability(t, x, a float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-a * math.Exp(p.B*x*math.Log(t/p.Alpha)))
}

// FailureCDF returns F(t | x) = 1 - R(t | x).
func (p Params) FailureCDF(t, x, a float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-a * math.Exp(p.B*x*math.Log(t/p.Alpha)))
}
