package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestNormPDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.3989422804014327},
		{1, 0.24197072451914337},
		{-1, 0.24197072451914337},
		{2, 0.05399096651318806},
		{3.5, 0.0008726826950457602},
	}
	for _, c := range cases {
		if got := NormPDF(c.x); !almostEqual(got, c.want, 1e-14) {
			t.Errorf("NormPDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
		{6, 0.9999999990134123},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormCDFMonotone(t *testing.T) {
	prev := NormCDF(-10)
	for x := -10.0; x <= 10; x += 0.01 {
		cur := NormCDF(x)
		if cur < prev {
			t.Fatalf("NormCDF not monotone at x=%v: %v < %v", x, cur, prev)
		}
		prev = cur
	}
}

func TestNormQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-6} {
		x := NormQuantile(p)
		if got := NormCDF(x); !almostEqual(got, p, 1e-10) {
			t.Errorf("NormCDF(NormQuantile(%v)) = %v", p, got)
		}
	}
}

func TestNormQuantileEdges(t *testing.T) {
	if !math.IsInf(NormQuantile(0), -1) {
		t.Error("NormQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile(1) should be +Inf")
	}
	for _, p := range []float64{-0.5, 1.5, math.NaN()} {
		if !math.IsNaN(NormQuantile(p)) {
			t.Errorf("NormQuantile(%v) should be NaN", p)
		}
	}
	if q := NormQuantile(0.5); math.Abs(q) > 1e-15 {
		t.Errorf("NormQuantile(0.5) = %v, want 0", q)
	}
}

func TestNormQuantileSymmetryProperty(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p <= 0 || p >= 1 || p == 0.5 {
			return true
		}
		return almostEqual(NormQuantile(p), -NormQuantile(1-p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// Reference values from the identity P(1, x) = 1 - exp(-x) and
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := GammaP(1, x)
		if err != nil {
			t.Fatalf("GammaP(1,%v): %v", x, err)
		}
		if want := 1 - math.Exp(-x); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
		got, err = GammaP(0.5, x)
		if err != nil {
			t.Fatalf("GammaP(0.5,%v): %v", x, err)
		}
		if want := math.Erf(math.Sqrt(x)); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPEdges(t *testing.T) {
	if p, err := GammaP(3, 0); err != nil || p != 0 {
		t.Errorf("GammaP(3,0) = %v, %v; want 0, nil", p, err)
	}
	if p, err := GammaP(3, math.Inf(1)); err != nil || p != 1 {
		t.Errorf("GammaP(3,+Inf) = %v, %v; want 1, nil", p, err)
	}
	if _, err := GammaP(-1, 2); err == nil {
		t.Error("GammaP(-1,2) should error")
	}
	if _, err := GammaP(1, -2); err == nil {
		t.Error("GammaP(1,-2) should error")
	}
}

func TestGammaPMonotoneInX(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2.5, 7, 30} {
		prev := -1.0
		for x := 0.0; x < 4*a+20; x += 0.25 {
			p, err := GammaP(a, x)
			if err != nil {
				t.Fatalf("GammaP(%v,%v): %v", a, x, err)
			}
			if p < prev-1e-13 {
				t.Fatalf("GammaP(%v,·) not monotone at x=%v", a, x)
			}
			prev = p
		}
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, math.Sqrt2, 1e-10) {
		t.Errorf("Bisect sqrt(2) = %v", root)
	}
	// Root at an endpoint.
	root, err = Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12, 200)
	if err != nil || root != 0 {
		t.Errorf("Bisect endpoint root = %v, %v", root, err)
	}
	// No sign change must error.
	if _, err := Bisect(func(x float64) float64 { return 1 + x*x }, -1, 1, 1e-12, 200); err == nil {
		t.Error("Bisect without sign change should error")
	}
}

func TestBisectDecreasingFunction(t *testing.T) {
	// Bisect must also handle f decreasing over the bracket.
	root, err := Bisect(func(x float64) float64 { return 3 - x }, 0, 10, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 3, 1e-10) {
		t.Errorf("Bisect decreasing root = %v, want 3", root)
	}
}

// fn adapts a closure to Evaluator for tests and counts evaluations.
type fn struct {
	f     func(float64) float64
	calls *int
}

func (e fn) Eval(x float64) float64 {
	*e.calls++
	return e.f(x)
}

func brent(f func(float64) float64, a, b, tol float64) (root float64, calls int, err error) {
	e := fn{f: f, calls: &calls}
	root, err = Brent(e, a, b, e.Eval(a), e.Eval(b), tol, 200)
	return root, calls, err
}

func TestBrent(t *testing.T) {
	cases := []struct {
		name     string
		f        func(float64) float64
		a, b     float64
		want     float64
		maxCalls int
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2, 12},
		{"decreasing", func(x float64) float64 { return 3 - x }, 0, 10, 3, 4},
		{"cubic", func(x float64) float64 { return (x - 0.7) * (x*x + 1) }, -5, 5, 0.7, 15},
		// A Weibull log-CDF in log t: near-linear, the lifetime case.
		{"weibull", func(x float64) float64 { return math.Log(-math.Expm1(-math.Exp(1.4*(x-10)))) - math.Log(1e-5) }, -20, 15, 10 + math.Log(-math.Log1p(-1e-5))/1.4, 12},
		// −Inf on the low side (underflow) forces bisection steps.
		{"underflow", func(x float64) float64 {
			if x < -1 {
				return math.Inf(-1)
			}
			return x - 0.25
		}, -100, 1, 0.25, 20},
	}
	for _, c := range cases {
		got, calls, err := brent(c.f, c.a, c.b, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !almostEqual(got, c.want, 1e-11) {
			t.Errorf("%s: root %v, want %v", c.name, got, c.want)
		}
		if calls > c.maxCalls {
			t.Errorf("%s: %d evaluations, want ≤ %d", c.name, calls, c.maxCalls)
		}
		bisCalls := 0
		if _, err := Bisect(func(x float64) float64 { bisCalls++; return c.f(x) }, c.a, c.b, 1e-12, 200); err != nil {
			t.Fatal(err)
		}
		if calls > bisCalls {
			t.Errorf("%s: %d evaluations, bisection needs %d", c.name, calls, bisCalls)
		}
	}
}

func TestBrentEdges(t *testing.T) {
	if root, _, err := brent(func(x float64) float64 { return x }, 0, 5, 1e-12); err != nil || root != 0 {
		t.Errorf("endpoint root = %v, %v", root, err)
	}
	if root, _, err := brent(func(x float64) float64 { return x - 5 }, 0, 5, 1e-12); err != nil || root != 5 {
		t.Errorf("upper endpoint root = %v, %v", root, err)
	}
	if _, _, err := brent(func(x float64) float64 { return 1 + x*x }, -1, 1, 1e-12); err == nil {
		t.Error("no sign change should error")
	}
	nanAbove := func(x float64) float64 {
		if x > 0.5 {
			return math.NaN()
		}
		return x - 0.75
	}
	if _, _, err := brent(nanAbove, 0, 1, 1e-12); err != ErrNaN {
		t.Errorf("NaN endpoint: err = %v, want ErrNaN", err)
	}
	nanInside := func(x float64) float64 {
		if x > 0.2 && x < 0.9 {
			return math.NaN()
		}
		return x - 0.5
	}
	if _, _, err := brent(nanInside, 0, 1, 1e-12); err != ErrNaN {
		t.Errorf("NaN inside: err = %v, want ErrNaN", err)
	}
	// A step function has no root to interpolate toward: the answer is
	// the jump, bracketed to tol.
	step := func(x float64) float64 {
		if x < 1.0/3 {
			return -1
		}
		return 1
	}
	if root, _, err := brent(step, 0, 1, 1e-10); err != nil || math.Abs(root-1.0/3) > 1e-10 {
		t.Errorf("step root = %v, %v", root, err)
	}
	// An evaluation cap that ends the search early still returns a
	// point inside the bracket.
	calls := 0
	e := fn{f: func(x float64) float64 { return x*x*x - 2 }, calls: &calls}
	root, err := Brent(e, 0, 2, e.Eval(0), e.Eval(2), 1e-15, 2)
	if err != nil || !(root > 0 && root < 2) || calls != 4 {
		t.Errorf("capped search = %v, %v after %d calls", root, err, calls)
	}
}

func BenchmarkBrent(b *testing.B) {
	calls := 0
	e := fn{f: func(x float64) float64 { return math.Log(-math.Expm1(-math.Exp(1.4*(x-10)))) - math.Log(1e-5) }, calls: &calls}
	fa, fb := e.Eval(-20), e.Eval(15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Brent(e, -20, 15, fa, fb, 1e-10, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormQuantile(0.3 + 0.4*float64(i%2))
	}
}

func BenchmarkGammaP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GammaP(12.5, 10+float64(i%5)); err != nil {
			b.Fatal(err)
		}
	}
}
