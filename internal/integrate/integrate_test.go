package integrate

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestTable2DReproducesBilinear(t *testing.T) {
	// Bilinear interpolation is exact for bilinear functions.
	f := func(x, y float64) float64 { return 3 + 2*x - y + 0.5*x*y }
	tab, err := NewTable2DWorkers(Linspace(0, 10, 11), Linspace(-5, 5, 21), f, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0.3, -4.9}, {5.5, 0.25}, {9.99, 4.99}, {0, -5}, {10, 5}} {
		if got := tab.At(q[0], q[1]); !approx(got, f(q[0], q[1]), 1e-12) {
			t.Errorf("At(%v,%v) = %v, want %v", q[0], q[1], got, f(q[0], q[1]))
		}
	}
	if len(tab.xs) != 11 || len(tab.ys) != 21 {
		t.Errorf("axes %d×%d, want 11×21", len(tab.xs), len(tab.ys))
	}
}

func TestTable2DClampsOutside(t *testing.T) {
	tab, err := NewTable2DWorkers([]float64{0, 1}, []float64{0, 1}, func(x, y float64) float64 { return x + y }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.At(-10, 0.5); !approx(got, 0.5, 1e-12) {
		t.Errorf("clamped x query = %v", got)
	}
	if got := tab.At(0.5, 99); !approx(got, 1.5, 1e-12) {
		t.Errorf("clamped y query = %v", got)
	}
}

func TestTable2DValidates(t *testing.T) {
	one := func(x, y float64) float64 { return 1 }
	if _, err := NewTable2DWorkers([]float64{0}, []float64{0, 1}, one, 1); err == nil {
		t.Error("single x point should error")
	}
	if _, err := NewTable2DWorkers([]float64{0, 0}, []float64{0, 1}, one, 1); err == nil {
		t.Error("non-increasing x should error")
	}
	if _, err := NewTable2DWorkers([]float64{0, 1}, []float64{1, 0}, one, 1); err == nil {
		t.Error("decreasing y should error")
	}
}

// TestTable2DFromDataRejectsNonFiniteAxes feeds the decode path axes a
// checksum-valid but hostile payload can carry: a NaN compares false
// against its neighbours, so a `<=` test alone lets it through.
func TestTable2DFromDataRejectsNonFiniteAxes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string][2][]float64{
		"NaN first x":  {{nan, 1, 2}, {0, 1}},
		"NaN inner x":  {{0, nan, 2}, {0, 1}},
		"NaN last y":   {{0, 1, 2}, {0, nan}},
		"all-NaN y":    {{0, 1, 2}, {nan, nan}},
		"+Inf last x":  {{0, 1, inf}, {0, 1}},
		"-Inf first y": {{0, 1, 2}, {-inf, 1}},
		"repeated x":   {{0, 1, 1}, {0, 1}},
	}
	for name, ax := range cases {
		vals := make([]float64, len(ax[0])*len(ax[1]))
		if _, err := NewTable2DFromData(ax[0], ax[1], vals); err == nil {
			t.Errorf("%s: NewTable2DFromData accepted axes %v × %v", name, ax[0], ax[1])
		}
		if _, err := NewTable2DWorkers(ax[0], ax[1], func(x, y float64) float64 { return 0 }, 1); err == nil {
			t.Errorf("%s: NewTable2DWorkers accepted axes %v × %v", name, ax[0], ax[1])
		}
	}
	if _, err := NewTable2DFromData([]float64{0, 1}, []float64{0, 1}, make([]float64, 4)); err != nil {
		t.Errorf("finite increasing axes rejected: %v", err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !approx(xs[i], want[i], 1e-15) {
			t.Errorf("Linspace = %v", xs)
		}
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
}

// Property: Table2D.At reproduces the fill function exactly at grid
// nodes.
func TestTable2DNodesProperty(t *testing.T) {
	f := func(seed int64) bool {
		fn := func(x, y float64) float64 { return math.Sin(x) + math.Cos(y) + float64(seed%7) }
		xs := Linspace(0, 4, 9)
		ys := Linspace(-2, 2, 7)
		tab, err := NewTable2DWorkers(xs, ys, fn, 1)
		if err != nil {
			return false
		}
		for _, x := range xs {
			for _, y := range ys {
				if !approx(tab.At(x, y), fn(x, y), 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
