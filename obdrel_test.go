package obdrel_test

import (
	"math"
	"testing"

	"obdrel"
)

// fastConfig returns a configuration light enough for unit tests:
// a coarser correlation grid and fewer Monte-Carlo samples.
func fastConfig() *obdrel.Config {
	cfg := obdrel.DefaultConfig()
	cfg.GridNx, cfg.GridNy = 8, 8
	cfg.MCSamples = 600
	cfg.StMCSamples = 3000
	return cfg
}

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDefaultConfigValid(t *testing.T) {
	if err := obdrel.DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*obdrel.Config){
		func(c *obdrel.Config) { c.VDD = 0 },
		func(c *obdrel.Config) { c.SigmaRatio = 0 },
		func(c *obdrel.Config) { c.SigmaRatio = 1.5 },
		func(c *obdrel.Config) { c.GridNx = 0 },
		func(c *obdrel.Config) { c.RhoDist = 0 },
		func(c *obdrel.Config) { c.GuardSigmas = -1 },
	}
	for i, mut := range mutations {
		cfg := obdrel.DefaultConfig()
		mut(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestBenchmarkRoster(t *testing.T) {
	bs := obdrel.Benchmarks()
	if len(bs) != 6 {
		t.Fatalf("got %d benchmarks", len(bs))
	}
	wantDevices := []int{50_000, 80_000, 100_000, 200_000, 500_000, 840_000}
	for i, d := range bs {
		if got := d.TotalDevices(); got != wantDevices[i] {
			t.Errorf("%s: %d devices, want %d", d.Name, got, wantDevices[i])
		}
	}
}

func TestDesignConstructors(t *testing.T) {
	mc, err := obdrel.ManyCore(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Blocks) != 18 {
		t.Errorf("many-core blocks = %d", len(mc.Blocks))
	}
	if _, err := obdrel.ManyCore(0, 600); err == nil {
		t.Error("invalid many-core should error")
	}
}

func TestNewAnalyzerValidation(t *testing.T) {
	if _, err := obdrel.NewAnalyzer(nil, nil); err == nil {
		t.Error("nil design should error")
	}
	bad := obdrel.DefaultConfig()
	bad.VDD = -1
	if _, err := obdrel.NewAnalyzer(obdrel.C1(), bad); err == nil {
		t.Error("bad config should error")
	}
	overlapping := &obdrel.Design{
		Name: "bad", W: 1, H: 1,
		Blocks: []obdrel.Block{
			{Name: "a", X: 0, Y: 0, W: 0.8, H: 1, Devices: 10, Activity: 0.5},
			{Name: "b", X: 0.5, Y: 0, W: 0.5, H: 1, Devices: 10, Activity: 0.5},
		},
	}
	if _, err := obdrel.NewAnalyzer(overlapping, nil); err == nil {
		t.Error("overlapping design should error")
	}
}

func TestAnalyzerBlocksReport(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	blocks := an.Blocks()
	if len(blocks) != 8 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	for _, b := range blocks {
		if b.MaxTempC < b.MeanTempC {
			t.Errorf("block %s: max temp below mean", b.Name)
		}
		if !(b.PowerW > 0) || !(b.Alpha > 0) || !(b.B > 0) || b.Devices <= 0 {
			t.Errorf("block %s: implausible report %+v", b.Name, b)
		}
	}
	// Hotter blocks must have smaller characteristic life.
	for i := range blocks {
		for j := range blocks {
			if blocks[i].MaxTempC > blocks[j].MaxTempC+0.5 && blocks[i].Alpha >= blocks[j].Alpha {
				t.Errorf("block %s hotter than %s but α not smaller", blocks[i].Name, blocks[j].Name)
			}
		}
	}
}

func TestAnalyzerTemperatureField(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, temps := an.TemperatureField()
	if nx*ny != len(temps) {
		t.Fatalf("field geometry %d×%d vs %d cells", nx, ny, len(temps))
	}
	min, mean, max := an.TempSpread()
	if !(min <= mean && mean <= max) {
		t.Errorf("TempSpread ordering: %v %v %v", min, mean, max)
	}
	if max-min < 5 || max-min > 60 {
		t.Errorf("temperature spread %v K outside plausible band", max-min)
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[obdrel.Method]string{
		obdrel.MethodStFast:      "st_fast",
		obdrel.MethodStMC:        "st_MC",
		obdrel.MethodHybrid:      "hybrid",
		obdrel.MethodGuard:       "guard",
		obdrel.MethodMC:          "MC",
		obdrel.MethodTempUnaware: "temp_unaware",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if got := obdrel.Method(99).String(); got != "method(99)" {
		t.Errorf("unknown method = %q", got)
	}
	if len(obdrel.Methods()) != 6 {
		t.Error("Methods() should list all six")
	}
}

func TestReliabilityAcrossMethods(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tRef, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range obdrel.Methods() {
		p, err := an.FailureProb(tRef, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if p < 0 || p > 1 {
			t.Errorf("%v: P = %v", m, p)
		}
	}
}

func TestHeadlineAccuracyAndOrdering(t *testing.T) {
	// The paper's Table III / Fig. 10 claims, on C1 at test scale:
	// st_fast, st_MC and hybrid land within a few percent of MC;
	// guard and temp-unaware are pessimistic in the right order.
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := an.CompareMethods(10, obdrel.Methods())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[obdrel.Method]obdrel.Comparison{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	for _, m := range []obdrel.Method{obdrel.MethodStFast, obdrel.MethodStMC, obdrel.MethodHybrid} {
		if e := math.Abs(byName[m].ErrVsMCPct); e > 6 {
			t.Errorf("%v error vs MC = %.2f%%, want ≤ 6%%", m, e)
		}
	}
	if byName[obdrel.MethodMC].ErrVsMCPct != 0 {
		t.Error("MC row should have zero self-error")
	}
	guard := byName[obdrel.MethodGuard]
	unaware := byName[obdrel.MethodTempUnaware]
	fast := byName[obdrel.MethodStFast]
	if !(guard.LifetimeH < unaware.LifetimeH && unaware.LifetimeH < fast.LifetimeH) {
		t.Errorf("pessimism ordering violated: guard %v, unaware %v, st_fast %v",
			guard.LifetimeH, unaware.LifetimeH, fast.LifetimeH)
	}
	if guard.ErrVsMCPct > -25 {
		t.Errorf("guard error %.1f%%, want strongly pessimistic", guard.ErrVsMCPct)
	}
}

func TestCompareMethodsValidation(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.CompareMethods(10, nil); err == nil {
		t.Error("empty method list should error")
	}
}

func TestReliabilityCurveMonotone(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	t10, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	times, pf, err := an.ReliabilityCurve(t10/100, t10*100, 40, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 40 || len(pf) != 40 {
		t.Fatalf("curve lengths %d, %d", len(times), len(pf))
	}
	for i := 1; i < len(pf); i++ {
		if times[i] <= times[i-1] {
			t.Fatal("curve times not increasing")
		}
		if pf[i] < pf[i-1]-1e-12 {
			t.Fatal("failure curve not monotone")
		}
	}
	if _, _, err := an.ReliabilityCurve(10, 1, 40, obdrel.MethodStFast); err == nil {
		t.Error("inverted range should error")
	}
}

func TestSampleFailureTimes(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	times, err := an.SampleFailureTimes(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 500 {
		t.Fatalf("got %d failure times", len(times))
	}
	for _, ft := range times {
		if !(ft > 0) {
			t.Fatal("non-positive failure time")
		}
	}
}

func TestVoltageAccelerationThroughFacade(t *testing.T) {
	// Raising VDD must shorten the predicted lifetime (the knob the
	// voltage_sweep example turns).
	cfgLo := fastConfig()
	cfgHi := fastConfig()
	cfgHi.VDD = 1.32
	anLo, err := obdrel.NewAnalyzer(obdrel.C1(), cfgLo)
	if err != nil {
		t.Fatal(err)
	}
	anHi, err := obdrel.NewAnalyzer(obdrel.C1(), cfgHi)
	if err != nil {
		t.Fatal(err)
	}
	tLo, err := anLo.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	tHi, err := anHi.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if !(tHi < tLo/3) {
		t.Errorf("10%% overdrive: lifetime %v → %v, expected a strong reduction", tLo, tHi)
	}
}

func TestClassStrings(t *testing.T) {
	names := map[obdrel.Class]string{
		obdrel.Cache: "cache", obdrel.RegFile: "regfile", obdrel.Control: "control",
		obdrel.ALU: "alu", obdrel.FPU: "fpu", obdrel.Queue: "queue",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("Class %d = %q, want %q", int(c), got, want)
		}
	}
}
