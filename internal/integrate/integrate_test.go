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

func TestMidpoint1D(t *testing.T) {
	// ∫₀¹ x² dx = 1/3
	got := Midpoint1D(func(x float64) float64 { return x * x }, 0, 1, 1000)
	if !approx(got, 1.0/3, 1e-6) {
		t.Errorf("x² integral = %v", got)
	}
	// Midpoint is exact for linear functions with any panel count.
	got = Midpoint1D(func(x float64) float64 { return 3*x + 2 }, -1, 4, 3)
	want := 3.0/2*(16-1) + 2*5
	if !approx(got, want, 1e-12) {
		t.Errorf("linear integral = %v, want %v", got, want)
	}
	// Degenerate inputs return 0.
	if Midpoint1D(math.Sin, 1, 1, 10) != 0 || Midpoint1D(math.Sin, 0, 1, 0) != 0 {
		t.Error("degenerate Midpoint1D should be 0")
	}
}

func TestMidpoint2D(t *testing.T) {
	// ∫∫ xy over [0,1]² = 1/4
	got := Midpoint2D(func(x, y float64) float64 { return x * y }, 0, 1, 50, 0, 1, 50)
	if !approx(got, 0.25, 1e-10) {
		t.Errorf("xy integral = %v", got)
	}
	// Bilinear integrand is integrated exactly by midpoint rule:
	// ∫∫(2+x+y+xy) over [0,2]×[0,3] = 12 + 6 + 9 + 9 = 36.
	got = Midpoint2D(func(x, y float64) float64 { return 2 + x + y + x*y }, 0, 2, 2, 0, 3, 2)
	want := 36.0
	if !approx(got, want, 1e-12) {
		t.Errorf("bilinear integral = %v, want %v", got, want)
	}
	if Midpoint2D(func(x, y float64) float64 { return 1 }, 0, 0, 2, 0, 1, 2) != 0 {
		t.Error("degenerate range should be 0")
	}
}

func TestGaussLegendreNodes(t *testing.T) {
	// The 2-point rule has nodes ±1/√3, weights 1.
	x, w, err := GaussLegendre(2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[1], 1/math.Sqrt(3), 1e-14) || !approx(w[0], 1, 1e-14) {
		t.Errorf("2-point rule: x=%v w=%v", x, w)
	}
	// Weights always sum to 2 (length of [-1,1]).
	for _, n := range []int{1, 3, 7, 16, 40} {
		_, w, err := GaussLegendre(n)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, wi := range w {
			s += wi
		}
		if !approx(s, 2, 1e-12) {
			t.Errorf("n=%d: weights sum to %v", n, s)
		}
	}
	if _, _, err := GaussLegendre(0); err == nil {
		t.Error("n=0 should error")
	}
}

func TestGaussLegendreExactness(t *testing.T) {
	// n-point GL is exact for polynomials up to degree 2n-1.
	// Check x⁹ on [0,1] with n=5: ∫ = 1/10.
	got, err := GaussLegendre1D(func(x float64) float64 { return math.Pow(x, 9) }, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 0.1, 1e-13) {
		t.Errorf("x⁹ integral = %v", got)
	}
}

func TestGaussLegendre2DGaussian(t *testing.T) {
	// ∫∫ standard bivariate normal over [-8,8]² = 1.
	f := func(x, y float64) float64 {
		return math.Exp(-(x*x+y*y)/2) / (2 * math.Pi)
	}
	got, err := GaussLegendre2D(f, -8, 8, -8, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1, 1e-8) {
		t.Errorf("bivariate normal mass = %v", got)
	}
}

func TestMidpointConvergesToGL(t *testing.T) {
	f := func(x, y float64) float64 { return math.Exp(-x*x-y*y) * math.Cos(x*y) }
	ref, err := GaussLegendre2D(f, -2, 2, -2, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	got := Midpoint2D(f, -2, 2, 200, -2, 2, 200)
	if !approx(got, ref, 1e-4) {
		t.Errorf("midpoint %v vs GL %v", got, ref)
	}
}

func TestTable2DReproducesBilinear(t *testing.T) {
	// Bilinear interpolation is exact for bilinear functions.
	f := func(x, y float64) float64 { return 3 + 2*x - y + 0.5*x*y }
	tab, err := NewTable2D(Linspace(0, 10, 11), Linspace(-5, 5, 21), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0.3, -4.9}, {5.5, 0.25}, {9.99, 4.99}, {0, -5}, {10, 5}} {
		if got := tab.At(q[0], q[1]); !approx(got, f(q[0], q[1]), 1e-12) {
			t.Errorf("At(%v,%v) = %v, want %v", q[0], q[1], got, f(q[0], q[1]))
		}
	}
	nx, ny := tab.Size()
	if nx != 11 || ny != 21 {
		t.Errorf("Size = %d,%d", nx, ny)
	}
}

func TestTable2DClampsOutside(t *testing.T) {
	tab, err := NewTable2D([]float64{0, 1}, []float64{0, 1}, func(x, y float64) float64 { return x + y })
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
	if _, err := NewTable2D([]float64{0}, []float64{0, 1}, one); err == nil {
		t.Error("single x point should error")
	}
	if _, err := NewTable2D([]float64{0, 0}, []float64{0, 1}, one); err == nil {
		t.Error("non-increasing x should error")
	}
	if _, err := NewTable2D([]float64{0, 1}, []float64{1, 0}, one); err == nil {
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
		if _, err := NewTable2D(ax[0], ax[1], func(x, y float64) float64 { return 0 }); err == nil {
			t.Errorf("%s: NewTable2D accepted axes %v × %v", name, ax[0], ax[1])
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

func TestInterpMonotone(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{0, 10, 20, 40}
	cases := []struct{ q, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1.5, 15}, {3, 30}, {4, 40}, {99, 40},
	}
	for _, c := range cases {
		got, err := InterpMonotone(xs, ys, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, c.want, 1e-12) {
			t.Errorf("InterpMonotone(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := InterpMonotone([]float64{1, 1}, []float64{0, 0}, 1); err == nil {
		t.Error("non-increasing xs should error")
	}
	if _, err := InterpMonotone(nil, nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if v, err := InterpMonotone([]float64{2}, []float64{7}, 100); err != nil || v != 7 {
		t.Errorf("single point interp = %v, %v", v, err)
	}
}

// Property: Table2D.At reproduces the fill function exactly at grid
// nodes.
func TestTable2DNodesProperty(t *testing.T) {
	f := func(seed int64) bool {
		fn := func(x, y float64) float64 { return math.Sin(x) + math.Cos(y) + float64(seed%7) }
		xs := Linspace(0, 4, 9)
		ys := Linspace(-2, 2, 7)
		tab, err := NewTable2D(xs, ys, fn)
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
