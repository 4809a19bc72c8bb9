package thermal

import (
	"math"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/power"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// uniformDesign is a single block covering the whole die.
func uniformDesign() *floorplan.Design {
	return &floorplan.Design{
		Name: "uniform", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "all", X: 0, Y: 0, W: 1, H: 1, Devices: 1000, Activity: 0.5},
		},
	}
}

func TestUniformPowerGivesUniformRise(t *testing.T) {
	s := DefaultSolver()
	d := uniformDesign()
	p := 10.0
	f, err := s.Solve(d, []float64{p})
	if err != nil {
		t.Fatal(err)
	}
	// With uniform power there is no lateral flow; every cell sits at
	// T_amb + P_total/G_vertical.
	want := s.TAmbient + p/s.GVertical
	min, max := f.MinMax()
	if !approx(min, want, 1e-4) || !approx(max, want, 1e-4) {
		t.Errorf("uniform field [%v, %v], want %v", min, max, want)
	}
}

func TestZeroPowerStaysAmbient(t *testing.T) {
	s := DefaultSolver()
	d := uniformDesign()
	f, err := s.Solve(d, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	min, max := f.MinMax()
	if !approx(min, s.TAmbient, 1e-9) || !approx(max, s.TAmbient, 1e-9) {
		t.Errorf("zero-power field [%v, %v]", min, max)
	}
}

// TestEnergyBalance: the heat extracted vertically equals the injected
// power, to rounding, at every resolution and lateral conductance.
func TestEnergyBalance(t *testing.T) {
	d := floorplan.C6()
	powers := make([]float64, len(d.Blocks))
	total := 0.0
	for i := range powers {
		powers[i] = 1 + float64(i)*0.5
		total += powers[i]
	}
	for _, n := range []int{1, 7, 32, 100} {
		for _, gl := range []float64{0, 0.1, 10} {
			s := DefaultSolver()
			s.Nx, s.Ny, s.GLateral = n, n, gl
			f, err := s.Solve(d, powers)
			if err != nil {
				t.Fatal(err)
			}
			if imb := f.EnergyBalance(s, total); imb > 1e-12 {
				t.Errorf("%dx%d gl=%g: energy imbalance %v", n, n, gl, imb)
			}
		}
	}
}

// TestRedBlackEnergyBalance: equal power in every C6 block at the
// default resolution is conserved by the solve. The name dates from the
// red-black SOR solver this fixture was first written for.
func TestRedBlackEnergyBalance(t *testing.T) {
	d := floorplan.C6()
	s := DefaultSolver()
	powers := make([]float64, len(d.Blocks))
	total := 0.0
	for i := range powers {
		powers[i] = 3
		total += 3
	}
	f, err := s.Solve(d, powers)
	if err != nil {
		t.Fatal(err)
	}
	if imb := f.EnergyBalance(s, total); imb > 1e-12 {
		t.Fatalf("energy imbalance %v", imb)
	}
}

func TestHotspotWhereThePowerIs(t *testing.T) {
	s := DefaultSolver()
	d := &floorplan.Design{
		Name: "two", W: 1, H: 1,
		Blocks: []floorplan.Block{
			{Name: "hot", X: 0, Y: 0, W: 0.5, H: 1, Devices: 10, Activity: 1},
			{Name: "cold", X: 0.5, Y: 0, W: 0.5, H: 1, Devices: 10, Activity: 0},
		},
	}
	f, err := s.Solve(d, []float64{20, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(f.At(0.25, 0.5) > f.At(0.75, 0.5)+5) {
		t.Errorf("hot side %v not hotter than cold side %v", f.At(0.25, 0.5), f.At(0.75, 0.5))
	}
	mean, max, err := f.BlockTemps(d)
	if err != nil {
		t.Fatal(err)
	}
	if !(mean[0] > mean[1]) {
		t.Errorf("block means %v not ordered", mean)
	}
	if max[0] < mean[0] || max[1] < mean[1] {
		t.Error("block max below block mean")
	}
}

func TestMonotoneInPower(t *testing.T) {
	s := DefaultSolver()
	d := uniformDesign()
	f1, err := s.Solve(d, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Solve(d, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Temps {
		if f2.Temps[i] < f1.Temps[i]-1e-9 {
			t.Fatal("doubling power lowered a cell temperature")
		}
	}
}

func TestSolveValidatesInputs(t *testing.T) {
	s := DefaultSolver()
	d := uniformDesign()
	if _, err := s.Solve(d, []float64{1, 2}); err == nil {
		t.Error("wrong power count should error")
	}
	if _, err := s.Solve(d, []float64{-1}); err == nil {
		t.Error("negative power should error")
	}
	bad := *DefaultSolver()
	bad.Nx = 0
	if _, err := bad.Solve(d, []float64{1}); err == nil {
		t.Error("invalid resolution should error")
	}
	bad = *DefaultSolver()
	bad.GVertical = 0
	if _, err := bad.Solve(d, []float64{1}); err == nil {
		t.Error("zero vertical conductance should error")
	}
	bad = *DefaultSolver()
	bad.GLateral = -0.1
	if _, err := bad.Solve(d, []float64{1}); err == nil {
		t.Error("negative lateral conductance should error")
	}
}

// TestSolverMethodValidation: the default solver validates, and
// Validate alone rejects each out-of-range parameter.
func TestSolverMethodValidation(t *testing.T) {
	if err := DefaultSolver().Validate(); err != nil {
		t.Errorf("default solver: %v", err)
	}
	for name, mutate := range map[string]func(*Solver){
		"Nx=0":          func(s *Solver) { s.Nx = 0 },
		"Ny=-1":         func(s *Solver) { s.Ny = -1 },
		"GVertical=0":   func(s *Solver) { s.GVertical = 0 },
		"GVertical=NaN": func(s *Solver) { s.GVertical = math.NaN() },
		"GLateral<0":    func(s *Solver) { s.GLateral = -0.1 },
	} {
		s := DefaultSolver()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

func TestC6ProfileShape(t *testing.T) {
	// Full pipeline sanity: the EV6-like design develops a
	// block-structured profile with tens of kelvin of spread and the
	// hotspot on the integer execution unit — the Fig. 1(a) shape.
	s := DefaultSolver()
	d := floorplan.C6()
	pm := power.Default()
	res, err := s.SolveCoupled(d, func(temps []float64) ([]float64, error) {
		return pm.DesignPowers(d, 1.2, temps)
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Field.MinMax()
	spread := max - min
	if spread < 10 || spread > 60 {
		t.Errorf("across-die spread = %v K, outside [10, 60]", spread)
	}
	if max < 60 || max > 130 {
		t.Errorf("peak temperature = %v °C, outside the plausible envelope", max)
	}
	// Hottest block must be intexec.
	hot := 0
	for i := range res.BlockMean {
		if res.BlockMean[i] > res.BlockMean[hot] {
			hot = i
		}
	}
	if d.Blocks[hot].Name != "intexec" {
		t.Errorf("hottest block is %q, want intexec (temps %v)", d.Blocks[hot].Name, res.BlockMean)
	}
	// Caches must be cooler than the hotspot by a wide margin.
	for i := range d.Blocks {
		if d.Blocks[i].Class == floorplan.ClassCache {
			if res.BlockMean[hot]-res.BlockMean[i] < 5 {
				t.Errorf("cache %q within 5K of the hotspot", d.Blocks[i].Name)
			}
		}
	}
}

func TestSolveCoupledConverges(t *testing.T) {
	s := DefaultSolver()
	d := floorplan.C6()
	pm := power.Default()
	res, err := s.SolveCoupled(d, func(temps []float64) ([]float64, error) {
		return pm.DesignPowers(d, 1.2, temps)
	}, 0.01, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Errorf("fixed point converged suspiciously fast (%d rounds)", res.Rounds)
	}
	// Re-evaluating power at the converged temps must reproduce the
	// converged powers (fixed-point property).
	p2, err := pm.DesignPowers(d, 1.2, res.BlockMean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p2 {
		if !approx(p2[i], res.Powers[i], 1e-3) {
			t.Errorf("block %d power not at fixed point: %v vs %v", i, p2[i], res.Powers[i])
		}
	}
}

func TestSolveCoupledRequiresCallback(t *testing.T) {
	s := DefaultSolver()
	if _, err := s.SolveCoupled(uniformDesign(), nil, 0, 0); err == nil {
		t.Error("nil callback should error")
	}
}

func TestFieldAtClamps(t *testing.T) {
	s := DefaultSolver()
	f, err := s.Solve(uniformDesign(), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if f.At(-1, -1) != f.At(0, 0) {
		t.Error("negative coordinates should clamp to the first cell")
	}
	if f.At(99, 99) != f.At(0.999, 0.999) {
		t.Error("large coordinates should clamp to the last cell")
	}
}

func TestFieldMean(t *testing.T) {
	f := &Field{Nx: 2, Ny: 1, W: 1, H: 1, Temps: []float64{40, 60}}
	if f.Mean() != 50 {
		t.Errorf("Mean = %v", f.Mean())
	}
}

func BenchmarkSolveC6(b *testing.B) {
	s := DefaultSolver()
	d := floorplan.C6()
	powers := make([]float64, len(d.Blocks))
	for i := range powers {
		powers[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(d, powers); err != nil {
			b.Fatal(err)
		}
	}
}
