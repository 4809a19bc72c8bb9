package thermal

import (
	"context"
	"math"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/power"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// coupled is the per-design build followed by one coupled solve.
func coupled(s *Solver, d *floorplan.Design, powerAt func([]float64) ([]float64, error), tolK float64, maxRounds int) (*CoupledResult, error) {
	op, err := s.NewOperator(d, 0)
	if err != nil {
		return nil, err
	}
	return s.SolveCoupledCtx(context.Background(), op, d, powerAt, tolK, maxRounds)
}

// solve is the steady state at fixed block powers: a coupled solve
// whose power callback ignores the temperatures, so its field is the
// operator's T_amb + H·p at those powers.
func solve(s *Solver, d *floorplan.Design, powers []float64) (*Field, error) {
	res, err := coupled(s, d, func([]float64) ([]float64, error) { return powers, nil }, 0, 0)
	if err != nil {
		return nil, err
	}
	return res.Field, nil
}

// blockTemps is BlockTempsInto into fresh slices.
func blockTemps(f *Field, d *floorplan.Design) (mean, max []float64, err error) {
	mean = make([]float64, len(d.Blocks))
	max = make([]float64, len(d.Blocks))
	return mean, max, f.BlockTempsInto(d, mean, max)
}

// energyBalance returns the relative imbalance between the heat
// extracted vertically, Σ gv·(T_c - T_amb), and the total injected
// power. A correct steady-state solution makes this ~0; tests use it
// as the conservation check.
func energyBalance(f *Field, s *Solver, totalPower float64) float64 {
	gv := s.GVertical / float64(f.Nx*f.Ny)
	out := 0.0
	for _, t := range f.Temps {
		out += gv * (t - s.TAmbient)
	}
	if totalPower == 0 {
		return math.Abs(out)
	}
	return math.Abs(out-totalPower) / totalPower
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
	f, err := solve(s, d, []float64{p})
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
	f, err := solve(s, d, []float64{0})
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
			f, err := solve(s, d, powers)
			if err != nil {
				t.Fatal(err)
			}
			if imb := energyBalance(f, s, total); imb > 1e-12 {
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
	f, err := solve(s, d, powers)
	if err != nil {
		t.Fatal(err)
	}
	if imb := energyBalance(f, s, total); imb > 1e-12 {
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
	f, err := solve(s, d, []float64{20, 1})
	if err != nil {
		t.Fatal(err)
	}
	mean, max, err := blockTemps(f, d)
	if err != nil {
		t.Fatal(err)
	}
	if !(mean[0] > mean[1]+5) {
		t.Errorf("hot block mean %v not 5 K above cold block mean %v", mean[0], mean[1])
	}
	if max[0] < mean[0] || max[1] < mean[1] {
		t.Error("block max below block mean")
	}
}

func TestMonotoneInPower(t *testing.T) {
	s := DefaultSolver()
	d := uniformDesign()
	f1, err := solve(s, d, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := solve(s, d, []float64{10})
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
	if _, err := solve(s, d, []float64{1, 2}); err == nil {
		t.Error("wrong power count should error")
	}
	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := solve(s, d, []float64{p}); err == nil {
			t.Errorf("power %v should error", p)
		}
	}
	bad := *DefaultSolver()
	bad.Nx = 0
	if _, err := solve(&bad, d, []float64{1}); err == nil {
		t.Error("invalid resolution should error")
	}
	bad = *DefaultSolver()
	bad.GVertical = 0
	if _, err := solve(&bad, d, []float64{1}); err == nil {
		t.Error("zero vertical conductance should error")
	}
	bad = *DefaultSolver()
	bad.GLateral = -0.1
	if _, err := solve(&bad, d, []float64{1}); err == nil {
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
	res, err := coupled(s, d, func(temps []float64) ([]float64, error) {
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
	res, err := coupled(s, d, func(temps []float64) ([]float64, error) {
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
	if _, err := coupled(s, uniformDesign(), nil, 0, 0); err == nil {
		t.Error("nil callback should error")
	}
}

func TestFieldMean(t *testing.T) {
	f := &Field{Nx: 2, Ny: 1, W: 1, H: 1, Temps: []float64{40, 60}}
	if f.Mean() != 50 {
		t.Errorf("Mean = %v", f.Mean())
	}
}
