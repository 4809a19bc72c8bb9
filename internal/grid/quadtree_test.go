package grid

import (
	"math"
	"math/rand"
	"testing"

	"obdrel/internal/stats"
)

// qtModel builds a quad-tree structured model with the Table II
// variance split.
func qtModel(t *testing.T, levels int, decay float64) *Model {
	t.Helper()
	sigmaTot := 2.2 * 0.04 / 3
	sg, ss, se, err := VarianceBudget(sigmaTot, 0.5, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(2.2, 1, 1, 8, 8, sg, ss, se, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m.Structure = StructQuadTree
	m.QTLevels = levels
	m.QTDecay = decay
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuadTreeCovarianceDiagonal(t *testing.T) {
	m := qtModel(t, 3, 0.5)
	c := m.Covariance()
	want := m.SigmaG*m.SigmaG + m.SigmaS*m.SigmaS
	for i := 0; i < m.NumGrids(); i++ {
		if !approx(c.At(i, i), want, 1e-12) {
			t.Fatalf("diagonal %d = %v, want %v", i, c.At(i, i), want)
		}
	}
	if !c.IsSymmetric(0) {
		t.Fatal("quad-tree covariance not symmetric")
	}
}

func TestQuadTreeCovarianceSteps(t *testing.T) {
	// Neighbouring grids share all levels; grids in opposite corners
	// share only the global term.
	m := qtModel(t, 3, 0.5)
	c := m.Covariance()
	g2 := m.SigmaG * m.SigmaG
	s2 := m.SigmaS * m.SigmaS
	// Grid 0 and grid 1 (adjacent, same quadrant everywhere for 8×8
	// grids with ≥2 levels... they share at least level 1).
	if !(c.At(0, 1) > g2) {
		t.Error("adjacent grids share no spatial variance")
	}
	// Opposite corners: only global.
	n := m.NumGrids()
	if !approx(c.At(0, n-1), g2, 1e-12) {
		t.Errorf("opposite corners covariance %v, want global %v", c.At(0, n-1), g2)
	}
	// Full sharing never exceeds g2+s2.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c.At(i, j) > g2+s2+1e-12 {
				t.Fatalf("cov(%d,%d) = %v exceeds total variance", i, j, c.At(i, j))
			}
		}
	}
}

func TestQuadTreeFactorExact(t *testing.T) {
	// The canonical factor must reproduce the covariance exactly:
	// Λ·Λᵀ = C.
	for _, levels := range []int{1, 2, 3} {
		m := qtModel(t, levels, 0.5)
		p, err := m.ComputePCA(1)
		if err != nil {
			t.Fatal(err)
		}
		rec := p.ReconstructCovariance()
		cov := m.Covariance()
		if d := maxAbsDiff(rec, cov); d > 1e-12 {
			t.Errorf("levels=%d: factor reconstruction error %v", levels, d)
		}
		wantCols := 1
		for l := 1; l <= levels; l++ {
			wantCols += (1 << l) * (1 << l)
		}
		if p.K != wantCols {
			t.Errorf("levels=%d: K = %d, want %d", levels, p.K, wantCols)
		}
	}
}

func TestQuadTreeSampledCovariance(t *testing.T) {
	m := qtModel(t, 2, 0.5)
	p, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	n := m.NumGrids()
	nSamp := 40000
	a := make([]float64, nSamp)
	b := make([]float64, nSamp)
	far := make([]float64, nSamp)
	for s := 0; s < nSamp; s++ {
		shifts := p.GridShifts(p.SampleComponents(rng))
		a[s] = shifts[0]
		b[s] = shifts[1]
		far[s] = shifts[n-1]
	}
	cov := m.Covariance()
	rNear, err := stats.Correlation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := cov.At(0, 1) / cov.At(0, 0); !approx(rNear, want, 0.05) {
		t.Errorf("near correlation %v, want %v", rNear, want)
	}
	rFar, err := stats.Correlation(a, far)
	if err != nil {
		t.Fatal(err)
	}
	if want := cov.At(0, n-1) / cov.At(0, 0); math.Abs(rFar-want) > 0.03 {
		t.Errorf("far correlation %v, want %v", rFar, want)
	}
}

func TestQuadTreeDefaults(t *testing.T) {
	// Zero QTLevels/QTDecay select 3 levels with decay 0.5.
	m := qtModel(t, 0, 0)
	p, err := m.ComputePCA(1)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := 1 + 4 + 16 + 64
	if p.K != wantCols {
		t.Errorf("default K = %d, want %d", p.K, wantCols)
	}
}

func TestQuadTreeValidation(t *testing.T) {
	m := qtModel(t, 3, 0.5)
	m.QTLevels = -1
	if err := m.Validate(); err == nil {
		t.Error("negative levels should fail validation")
	}
}

func TestStructureString(t *testing.T) {
	if StructExpDecay.String() != "expdecay" || StructQuadTree.String() != "quadtree" {
		t.Error("Structure strings wrong")
	}
	if Structure(9).String() != "structure(9)" {
		t.Error("unknown structure string wrong")
	}
}

func TestWaferPatternOffsets(t *testing.T) {
	p := &WaferPattern{Bowl: 0.02, SlantX: 0.01, SlantY: -0.005}
	if p.Offset(0, 0) != 0 {
		t.Error("center offset should be 0")
	}
	// Bowl dominates at the edge.
	if got := p.Offset(1, 0); !approx(got, 0.02+0.01, 1e-15) {
		t.Errorf("edge offset = %v", got)
	}
}

func TestNominalAtWithPattern(t *testing.T) {
	m := qtModel(t, 2, 0.5)
	m.Structure = StructExpDecay // pattern is structure-independent
	m.Pattern = &WaferPattern{DieX: 0.8, DieY: 0, DieSpan: 0.1, Bowl: 0.03}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// All nominals shift up (bowl, die off-center) and vary across
	// the die.
	min, max := math.Inf(1), math.Inf(-1)
	for g := 0; g < m.NumGrids(); g++ {
		nom := m.NominalAt(g)
		if nom <= m.U0 {
			t.Fatalf("grid %d nominal %v not above u0 for an off-center die under a bowl", g, nom)
		}
		if nom < min {
			min = nom
		}
		if nom > max {
			max = nom
		}
	}
	if !(max > min) {
		t.Error("pattern produced no within-die gradient")
	}
	// Grids nearer the wafer edge (larger x for DieX>0) are thicker:
	// compare the first and last grid of the middle row.
	mid := m.Nx * (m.Ny / 2)
	left := m.NominalAt(mid)
	right := m.NominalAt(mid + m.Nx - 1)
	if !(right > left) {
		t.Errorf("bowl gradient inverted: left %v, right %v", left, right)
	}
	// Without a pattern, nominals are uniform.
	m.Pattern = nil
	if m.NominalAt(0) != m.U0 || m.NominalAt(3) != m.U0 {
		t.Error("NominalAt without pattern should be u0")
	}
}

func TestPatternValidation(t *testing.T) {
	m := qtModel(t, 2, 0.5)
	m.Pattern = &WaferPattern{DieSpan: -1}
	if err := m.Validate(); err == nil {
		t.Error("negative die span should fail validation")
	}
}
