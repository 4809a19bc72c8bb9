package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive-definite matrix
// A = MᵀM + n·I.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := mul(m.Transpose(), m)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// matrixFrom builds an r×c matrix from row-major data.
func matrixFrom(r, c int, data []float64) *Matrix {
	m := NewMatrix(r, c)
	copy(m.Data, data)
	return m
}

func clone(m *Matrix) *Matrix { return matrixFrom(m.Rows, m.Cols, m.Data) }

// mul returns a · b.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

// mulVec returns a · v.
func mulVec(a *Matrix, v []float64) []float64 {
	out := make([]float64, a.Rows)
	for i := range out {
		for j, x := range v {
			out[i] += a.At(i, j) * x
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := matrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set failed")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Errorf("Transpose wrong: %+v", tr)
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("NewMatrix(0,1)", func() { NewMatrix(0, 1) })
}

func TestMulAgainstHand(t *testing.T) {
	a := matrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := matrixFrom(2, 2, []float64{5, 6, 7, 8})
	got := mul(a, b)
	for i, want := range []float64{19, 22, 43, 50} {
		if got.Data[i] != want {
			t.Errorf("mul = %v", got.Data)
		}
	}
}

func TestMulVec(t *testing.T) {
	a := matrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := mulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("mulVec = %v", got)
	}
}

func checkEigen(t *testing.T, a *Matrix, vals []float64, vecs *Matrix, tol float64) {
	t.Helper()
	n := a.Rows
	// A·v_k = λ_k v_k for every eigenpair.
	for k := 0; k < n; k++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, k)
		}
		av := mulVec(a, v)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-vals[k]*v[i]) > tol {
				t.Fatalf("eigenpair %d violates A·v=λv: residual %v", k, av[i]-vals[k]*v[i])
			}
		}
	}
	// Orthonormality VᵀV = I.
	vtv := mul(vecs.Transpose(), vecs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(vtv.At(i, j)-want) > tol {
				t.Fatalf("VᵀV[%d,%d] = %v", i, j, vtv.At(i, j))
			}
		}
	}
	// Descending order.
	for k := 1; k < n; k++ {
		if vals[k] > vals[k-1]+tol {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	a := matrixFrom(2, 2, []float64{2, 1, 1, 2})
	vals, vecs, err := EigenSymCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	checkEigen(t, a, vals, vecs, 1e-10)
}

// randomSymmetric builds a random symmetric matrix with standard
// normal entries, indefinite in general.
func randomSymmetric(n int, rng *rand.Rand) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := rng.NormFloat64()
			a.Set(i, j, x)
			a.Set(j, i, x)
		}
	}
	return a
}

// expDecayKernel builds the covariance of an nx×ny grid of unit cells
// under the exponential-decay kernel exp(-dist/rho).
func expDecayKernel(nx, ny int, rho float64) *Matrix {
	n := nx * ny
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx, dy := float64(i%nx-j%nx), float64(i/nx-j/nx)
			a.Set(i, j, math.Exp(-math.Hypot(dx, dy)/rho))
		}
	}
	return a
}

// TestEigenSymBitIdenticalToReference pins the transposed-layout
// solver to the row-major reference it replaced: every eigenvalue and
// every eigenvector entry must match bit for bit, on the Go loops and
// on the AVX2 kernels. The sizes include
// every solve of the 25×25 PCA (66, 78, 91, 144, 156 and 169 rows) and
// odd and even ones, so QL sweeps of both parities pin tql2's fused
// rotation pair and its unpaired last rotation.
func TestEigenSymBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type tc struct {
		name string
		a    *Matrix
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 4, 5, 7, 17, 66, 78, 91, 100, 144, 156, 169} {
		cases = append(cases, tc{fmt.Sprintf("spd/n=%d", n), randomSPD(n, rng)})
	}
	for _, n := range []int{2, 3, 5, 17, 64, 65} {
		cases = append(cases, tc{fmt.Sprintf("indefinite/n=%d", n), randomSymmetric(n, rng)})
	}
	// Symmetric only within IsSymmetric's tolerance: the upper
	// triangle is perturbed, so the result depends on which triangle
	// the solver reads.
	near := randomSPD(40, rng)
	tol := 1e-9 * (1 + maxAbs(near))
	for i := 0; i < near.Rows; i++ {
		for j := i + 1; j < near.Cols; j++ {
			near.Set(i, j, near.At(i, j)+0.5*tol*(2*rng.Float64()-1))
		}
	}
	if !near.IsSymmetric(tol) || near.IsSymmetric(0) {
		t.Fatal("perturbed matrix is not symmetric within tolerance only")
	}
	cases = append(cases, tc{"near-symmetric/n=40", near})
	cases = append(cases, tc{"exp-decay/13x13", expDecayKernel(13, 13, 4)})
	forEachPath(t, func(t *testing.T) {
		for _, c := range cases {
			wantVals, wantVecs, err := eigenSymReference(c.a)
			if err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
			vals, vecs, err := EigenSymCtx(context.Background(), c.a)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for k := range wantVals {
				if math.Float64bits(vals[k]) != math.Float64bits(wantVals[k]) {
					t.Fatalf("%s: eigenvalue %d = %v, reference %v", c.name, k, vals[k], wantVals[k])
				}
			}
			for i := range wantVecs.Data {
				if math.Float64bits(vecs.Data[i]) != math.Float64bits(wantVecs.Data[i]) {
					t.Fatalf("%s: eigenvector entry (%d,%d) = %v, reference %v",
						c.name, i/c.a.Cols, i%c.a.Cols, vecs.Data[i], wantVecs.Data[i])
				}
			}
		}
	})
}

// checkpointCtx counts the solver's cancellation checkpoints (Err
// calls). Checkpoint at reads the parent's error and then signals
// reached; every later checkpoint first waits for cancelled, so a
// cancel issued after checkpoint at is seen by the next one.
type checkpointCtx struct {
	context.Context
	calls     atomic.Int64
	at        int64
	reached   chan struct{}
	cancelled chan struct{}
}

func (c *checkpointCtx) Err() error {
	n := c.calls.Add(1)
	if n > c.at {
		<-c.cancelled
	}
	err := c.Context.Err()
	if n == c.at {
		close(c.reached)
	}
	return err
}

func TestEigenSymCtxCancelled(t *testing.T) {
	a := randomSPD(400, rand.New(rand.NewSource(5)))
	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		vals, vecs, err := EigenSymCtx(ctx, a)
		if !errors.Is(err, context.Canceled) || vals != nil || vecs != nil {
			t.Fatalf("got (%d values, vectors %t, %v), want nil outputs and context.Canceled", len(vals), vecs != nil, err)
		}
	})
	// tred2's reduction and accumulation loops each check once per row
	// (399 + 399 at n = 400), then tql2 once per eigenvalue: cancel
	// inside each phase.
	for _, at := range []int64{1, 200, 600, 1000, 1001} {
		t.Run(fmt.Sprintf("after checkpoint %d", at), func(t *testing.T) {
			parent, cancel := context.WithCancel(context.Background())
			ctx := &checkpointCtx{Context: parent, at: at,
				reached: make(chan struct{}), cancelled: make(chan struct{})}
			solved := make(chan struct{})
			defer close(solved)
			go func() {
				select {
				case <-ctx.reached:
				case <-solved:
				}
				cancel()
				close(ctx.cancelled)
			}()
			vals, vecs, err := EigenSymCtx(ctx, a)
			if !errors.Is(err, context.Canceled) || vals != nil || vecs != nil {
				t.Fatalf("got (%d values, vectors %t, %v), want nil outputs and context.Canceled", len(vals), vecs != nil, err)
			}
			if got := ctx.calls.Load(); got != at+1 {
				t.Fatalf("returned after checkpoint %d, want the first one after the cancel (%d)", got, at+1)
			}
		})
	}
}

func TestEigenSymRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 40, 100} {
		a := randomSPD(n, rng)
		vals, vecs, err := EigenSymCtx(context.Background(), a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEigen(t, a, vals, vecs, 1e-7*float64(n))
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := matrixFrom(3, 3, []float64{5, 0, 0, 0, -2, 0, 0, 0, 1})
	vals, vecs, err := EigenSymCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 1, -2}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("vals = %v, want %v", vals, want)
		}
	}
	checkEigen(t, a, vals, vecs, 1e-12)
}

// TestEigenSymRejectsNonFinite: a NaN or infinite entry is an error.
// IsSymmetric alone lets a NaN pair through, and the solver would then
// panic (NaN) or return a wrong spectrum with no error (±Inf).
func TestEigenSymRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := matrixFrom(3, 3, []float64{1, x, 0, x, 1, 0, 0, 0, 1})
		if vals, vecs, err := EigenSymCtx(context.Background(), a); err == nil || vals != nil || vecs != nil {
			t.Errorf("off-diagonal %v: got (%v, %v), want an error and nil outputs", x, vals, err)
		}
	}
}

// TestEigenSymOverflowIsError: finite entries whose sums overflow
// turn into NaN inside the solve. That must come back as an error, not
// run the QL scan past the end of the tridiagonal.
func TestEigenSymOverflowIsError(t *testing.T) {
	for _, n := range []int{3, 5} {
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = math.MaxFloat64
		}
		if vals, vecs, err := EigenSymCtx(context.Background(), a); err == nil || vals != nil || vecs != nil {
			t.Errorf("n=%d of MaxFloat64: got (%v, %v), want an error and nil outputs", n, vals, err)
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := matrixFrom(2, 2, []float64{1, 5, 0, 1})
	if _, _, err := EigenSymCtx(context.Background(), a); err == nil {
		t.Error("asymmetric matrix should error")
	}
	if _, _, err := EigenSymCtx(context.Background(), NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix should error")
	}
}

func TestJacobiMatchesQL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 5, 15} {
		a := randomSPD(n, rng)
		v1, _, err := EigenSymCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		v2, vecs2, err := jacobiEigenSym(a, 50)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1 {
			if math.Abs(v1[i]-v2[i]) > 1e-8*(1+math.Abs(v1[i])) {
				t.Errorf("n=%d eigenvalue %d: QL %v vs Jacobi %v", n, i, v1[i], v2[i])
			}
		}
		checkEigen(t, a, v2, vecs2, 1e-8*float64(n))
	}
}

// TestEigenTraceProperty checks trace(A) = Σλ and trace(A²) = Σλ² on
// random symmetric (not necessarily definite) matrices.
// TestJacobiReportsNonConvergence: a sweep budget too small to
// converge must be an error, not an unconverged result.
func TestJacobiReportsNonConvergence(t *testing.T) {
	a := randomSPD(15, rand.New(rand.NewSource(3)))
	if vals, vecs, err := jacobiEigenSym(a, 1); err == nil || vals != nil || vecs != nil {
		t.Fatalf("1 sweep on 15×15: got (%d values, %v), want an error and nil outputs", len(vals), err)
	}
	if _, _, err := jacobiEigenSym(a, 50); err != nil {
		t.Fatalf("50 sweeps: %v", err)
	}
}

func TestEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSymmetric(n, rng)
		vals, _, err := EigenSymCtx(context.Background(), a)
		if err != nil {
			return false
		}
		tr, tr2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
			for j := 0; j < n; j++ {
				tr2 += a.At(i, j) * a.At(j, i)
			}
		}
		s, s2 := 0.0, 0.0
		for _, l := range vals {
			s += l
			s2 += l * l
		}
		return math.Abs(tr-s) < 1e-9*float64(n) && math.Abs(tr2-s2) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// eigenSymReference is the row-major JAMA/EISPACK solver that EigenSym
// replaced, kept verbatim (working copy clone(a), every O(n³) loop
// walking a column of v) as the oracle for
// TestEigenSymBitIdenticalToReference.
func eigenSymReference(a *Matrix) (values []float64, vectors *Matrix, err error) {
	ctx := context.Background()
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	if !a.IsSymmetric(1e-9 * (1 + maxAbs(a))) {
		return nil, nil, errors.New("linalg: EigenSym requires a symmetric matrix")
	}
	n := a.Rows
	v := clone(a)
	d := make([]float64, n)
	e := make([]float64, n)
	if err := tred2Reference(ctx, v, d, e); err != nil {
		return nil, nil, err
	}
	if err := tql2Reference(ctx, v, d, e); err != nil {
		return nil, nil, err
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for newCol, oldCol := range idx {
		values[newCol] = d[oldCol]
		for r := 0; r < n; r++ {
			vectors.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return values, vectors, nil
}

// tred2Reference reduces the symmetric matrix stored in v to tridiagonal form
// by Householder similarity transformations, accumulating the
// transformations in v. On return d holds the diagonal and e the
// subdiagonal (e[0] unused).
func tred2Reference(ctx context.Context, v *Matrix, d, e []float64) error {
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		scale, h := 0.0, 0.0
		if i > 1 {
			for k := 0; k < i; k++ {
				scale += math.Abs(d[k])
			}
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v.Set(k, j, v.At(k, j)-(f*e[k]+g*d[k]))
				}
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Set(k, j, v.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
	return nil
}

// tql2Reference diagonalizes the tridiagonal matrix (d, e) by implicit-shift QL
// iteration, accumulating eigenvectors into v.
func tql2Reference(ctx context.Context, v *Matrix, d, e []float64) error {
	n := v.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	f, tst1 := 0.0, 0.0
	const eps = 2.220446049250313e-16
	for l := 0; l < n; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 100 {
					return errors.New("linalg: QL iteration did not converge")
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					for k := 0; k < n; k++ {
						h = v.At(k, i+1)
						v.Set(k, i+1, s*v.At(k, i)+c*h)
						v.Set(k, i, c*v.At(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

func BenchmarkEigenSym100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(100, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSymCtx(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenSym156 solves a matrix the size of the largest solve
// of the 25×25 PCA on a square die: the EO block, on the PCA's
// critical path.
func BenchmarkEigenSym156(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(156, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSymCtx(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenSym169 solves a matrix the size of the largest
// reflection block of the 25×25 grid on a rectangular die (EE, which
// a square die splits into swap halves).
func BenchmarkEigenSym169(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(169, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSymCtx(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// jacobiEigenSym computes the eigendecomposition of a small symmetric
// matrix by cyclic Jacobi rotations. It is slower than EigenSymCtx but
// independent of it, so the two serve as cross-checks.
// Eigenvalues are returned in descending order. It returns an error if
// the off-diagonal part is still above tolerance after maxSweeps
// sweeps.
func jacobiEigenSym(a *Matrix, maxSweeps int) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: jacobiEigenSym requires a square matrix")
	}
	n := a.Rows
	m := clone(a)
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	tol := 1e-22 * float64(n*n)
	for sweep := 0; ; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < tol {
			break
		}
		if sweep == maxSweeps {
			return nil, nil, fmt.Errorf("linalg: Jacobi iteration did not converge in %d sweeps (off-diagonal sum of squares %g, tolerance %g)", maxSweeps, off, tol)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (m.At(q, q) - m.At(p, p)) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for newCol, oldCol := range idx {
		values[newCol] = d[oldCol]
		for r := 0; r < n; r++ {
			vectors.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return values, vectors, nil
}
