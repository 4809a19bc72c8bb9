package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"obdrel/internal/blod"
	"obdrel/internal/obd"
)

// newBlockWeights builds one block's l0×l0 midpoint weights, as its
// first fallback does.
func newBlockWeights(bc *blod.BlockChar, l0 int) (*blockWeights, error) {
	bi, err := newBlockIntegral(bc, l0)
	if err != nil {
		return nil, err
	}
	return bi.weights(), nil
}

// directFailureProb is the O(l0²) reference for blockWeights.midpoint:
// the same midpoint rule summed term by term, every node through GValue
// and expm1.
func directFailureProb(bw *blockWeights, l, b, area float64) float64 {
	d := 0.0
	for i, u := range bw.us {
		for j, v := range bw.vs {
			d += bw.fu[i] * bw.fv[j] * -math.Expm1(-area*GValue(l, b, u, v))
		}
	}
	if bw.wsum > 0 {
		d /= bw.wsum
	}
	return math.Min(math.Max(d, 0), 1)
}

// rowSumFailureProb is blockWeights.midpoint without the saturated-cell
// shortcut: series rows as there, and every cell of a direct row
// through GValue and expm1. midpoint must match it bit for bit.
func rowSumFailureProb(bw *blockWeights, l, b, area float64) float64 {
	lb := l * b
	c := lb * lb / 2
	vMax := bw.vs[len(bw.vs)-1]
	yOff := c*vMax + math.Log(area)
	var a [seriesK]float64
	haveA := false
	d := 0.0
	for i, u := range bw.us {
		y := math.Exp(lb*u + yOff)
		row := 0.0
		if y <= 1 {
			if !haveA {
				bw.seriesCoeffs(c, vMax, &a)
				haveA = true
			}
			r := a[seriesK-1]
			for k := seriesK - 2; k >= 0; k-- {
				r = r*y + a[k]
			}
			row = y * r
		} else {
			for j, v := range bw.vs {
				row += bw.fv[j] * -math.Expm1(-area*GValue(l, b, u, v))
			}
		}
		d += bw.fu[i] * row
	}
	if bw.wsum > 0 {
		d /= bw.wsum
	}
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// satSplit counts, over midpoint's direct rows, the cells it adds
// by the saturated-cell shortcut, and the rows that end without one.
func satSplit(bw *blockWeights, l, b, area float64) (cells, unfinished int) {
	lb := l * b
	yOff := lb*lb/2*bw.vs[len(bw.vs)-1] + math.Log(area)
	eSat := lnSaturated - math.Log(area)
	for _, u := range bw.us {
		if math.Exp(lb*u+yOff) <= 1 {
			continue
		}
		n := 0
		for _, v := range bw.vs {
			if lb*u+l*l*b*b*v/2 >= eSat {
				n++
			}
		}
		cells += n
		if n == 0 {
			unfinished++
		}
	}
	return cells, unfinished
}

// rowSplit counts the rows midpoint sums by series (largest A·g ≤ 1)
// and directly.
func rowSplit(bw *blockWeights, l, b, area float64) (series, direct int) {
	lb := l * b
	yOff := lb*lb/2*bw.vs[len(bw.vs)-1] + math.Log(area)
	for _, u := range bw.us {
		if math.Exp(lb*u+yOff) <= 1 {
			series++
		} else {
			direct++
		}
	}
	return series, direct
}

// integralBlocks returns the fixture's blocks plus those of two random
// chips, and a copy of the first with its v axis collapsed to an atom.
func integralBlocks(t testing.TB) []blod.BlockChar {
	t.Helper()
	blocks := append([]blod.BlockChar(nil), newFixture(t).chip.Char.Blocks...)
	for _, seed := range []int64{3, 11} {
		c, _, err := randomChip(seed)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, c.Char.Blocks...)
	}
	deg := blocks[0]
	deg.Degenerate = true
	return append(blocks, deg)
}

// TestFailureProbMatchesDirectSum holds the midpoint fallback's factored
// evaluation to the term-by-term midpoint sum over every test block, rule order, and a
// (L, b, A) sweep spanning the ppm regime, the knee and saturation.
func TestFailureProbMatchesDirectSum(t *testing.T) {
	blocks := integralBlocks(t)
	var bs []float64
	for b := 0.05; b <= 20; b *= 2.2 {
		bs = append(bs, b)
	}
	worst, straddles := 0.0, 0
	for bi := range blocks {
		bc := &blocks[bi]
		for _, l0 := range []int{1, 10, 32, 64} {
			bw, err := newBlockWeights(bc, l0)
			if err != nil {
				t.Fatal(err)
			}
			if bc.Degenerate && len(bw.vs) != 1 {
				t.Fatalf("degenerate block has %d v nodes, want 1", len(bw.vs))
			}
			for l := -60.0; l <= 5; l += 1.25 {
				for _, b := range bs {
					for _, scale := range []float64{1e-6, 1, 1e6} {
						area := bc.AJ * scale
						got := bw.midpoint(l, b, area)
						want := directFailureProb(bw, l, b, area)
						if !(math.Abs(got-want) <= 1e-12*want+1e-300) {
							t.Fatalf("block %d l0=%d L=%v b=%v A=%v: factored %v, direct %v",
								bi, l0, l, b, area, got, want)
						}
						if want > 1e-280 {
							worst = math.Max(worst, math.Abs(got-want)/want)
						}
						if s, d := rowSplit(bw, l, b, area); s > 0 && d > 0 {
							straddles++
						}
					}
				}
			}
		}
	}
	if straddles == 0 {
		t.Error("no evaluation mixed series and direct rows")
	}
	t.Logf("worst relative difference %.3g; %d evaluations mixed both row kinds", worst, straddles)
}

// TestSaturatedCellsBitIdentical holds the midpoint fallback to the sum
// without the saturated-cell shortcut, bit for bit, over every test
// block, rule order, and a (L, b, A) sweep from the ppm regime to
// overflow.
func TestSaturatedCellsBitIdentical(t *testing.T) {
	blocks := integralBlocks(t)
	var bs []float64
	for b := 0.05; b <= 20; b *= 2.2 {
		bs = append(bs, b)
	}
	shortcut, unfinished := 0, 0
	for bi := range blocks {
		bc := &blocks[bi]
		for _, l0 := range []int{1, 10, 32, 64} {
			bw, err := newBlockWeights(bc, l0)
			if err != nil {
				t.Fatal(err)
			}
			for l := -60.0; l <= 40; l += 1.25 {
				for _, b := range bs {
					for _, scale := range []float64{1e-6, 1, 1e6, 1e9} {
						area := bc.AJ * scale
						got, want := bw.midpoint(l, b, area), rowSumFailureProb(bw, l, b, area)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("block %d l0=%d L=%v b=%v A=%v: %v, want %v bit for bit",
								bi, l0, l, b, area, got, want)
						}
						c, u := satSplit(bw, l, b, area)
						shortcut += c
						unfinished += u
					}
				}
			}
		}
	}
	if shortcut < 1e5 || unfinished < 1e3 {
		t.Errorf("sweep took the shortcut for %d cells and left %d direct rows without it; want both common",
			shortcut, unfinished)
	}
	t.Logf("%d cells took the shortcut; %d direct rows had none", shortcut, unfinished)
}

// TestSaturatedCellBoundary places one cell's exponent at the shortcut's
// threshold ln 40 and its bounds, and feeds NaN and infinite exponents
// and areas: the midpoint fallback stays bit-identical to the
// unshortcut sum.
func TestSaturatedCellBoundary(t *testing.T) {
	fx := newFixture(t)
	bc := &fx.chip.Char.Blocks[0]
	bw, err := newBlockWeights(bc, DefaultL0)
	if err != nil {
		t.Fatal(err)
	}
	l, b := -10.0, fx.chip.Params[0].B
	i, j := DefaultL0/2, DefaultL0/2
	e := l*b*bw.us[i] + l*l*b*b*bw.vs[j]/2
	check := func(name string, l, b, area float64) {
		t.Helper()
		got, want := bw.midpoint(l, b, area), rowSumFailureProb(bw, l, b, area)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s (L=%v b=%v A=%v): %v, want %v bit for bit", name, l, b, area, got, want)
		}
	}
	for _, c := range []struct {
		name string
		x    float64 // cell (i, j)'s exponent with ln A
	}{
		{"ln 40", math.Log(40)},
		{"ln 40 + 1e-9", math.Log(40) + 1e-9},
		{"ln 40 - 1e-9", math.Log(40) - 1e-9},
		{"ln(56·ln 2)", math.Log(56 * math.Ln2)},
		{"ln(56·ln 2) + 1e-9", math.Log(56*math.Ln2) + 1e-9},
	} {
		area := math.Exp(c.x - e)
		if s, _ := satSplit(bw, l, b, area); s == 0 {
			t.Fatalf("%s: no cell took the shortcut", c.name)
		}
		check(c.name, l, b, area)
	}
	nan, inf := math.NaN(), math.Inf(1)
	check("NaN L", nan, b, bc.AJ)
	check("NaN area", l, b, nan)
	check("+Inf L", inf, b, bc.AJ)
	check("-Inf L", -inf, b, bc.AJ)
	check("+Inf b", l, inf, bc.AJ)
	check("+Inf area", l, b, inf)
	// Every g underflows to 0, so each direct cell is Inf·0 = NaN.
	check("+Inf area, underflowing g", -1000, b, inf)
	check("zero area", l, b, 0)
	check("overflowing exponent", 40, 20, bc.AJ)
	check("underflowing exponent", -60, 20, bc.AJ)
}

// TestFailureProbStraddle pins one evaluation whose rows fall on both
// sides of y = 1, so the series and direct sums meet in one call.
func TestFailureProbStraddle(t *testing.T) {
	fx := newFixture(t)
	bc := &fx.chip.Char.Blocks[0]
	bw, err := newBlockWeights(bc, DefaultL0)
	if err != nil {
		t.Fatal(err)
	}
	b := fx.chip.Params[0].B
	for l := -40.0; l <= 5; l += 0.05 {
		s, d := rowSplit(bw, l, b, bc.AJ)
		if s == 0 || d == 0 || s < DefaultL0/4 || d < DefaultL0/4 {
			continue
		}
		got, want := bw.midpoint(l, b, bc.AJ), directFailureProb(bw, l, b, bc.AJ)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("L=%v (%d series, %d direct rows): factored %v, direct %v", l, s, d, got, want)
		}
		return
	}
	t.Fatal("no L in [-40, 5] splits the rows")
}

// TestFailureProbFiniteAtExtremes sweeps ln(t/α) far past the lifetime
// solver's bracket: the midpoint fallback, the closed form where it
// closes, the block integral either gives, and the lower bound are
// never NaN or Inf and always a probability.
func TestFailureProbFiniteAtExtremes(t *testing.T) {
	for bi, bc := range integralBlocks(t) {
		bw, err := newBlockWeights(&bc, DefaultL0)
		if err != nil {
			t.Fatal(err)
		}
		it, err := newBlockIntegral(&bc, DefaultL0)
		if err != nil {
			t.Fatal(err)
		}
		for l := -200.0; l <= 50; l += 0.5 {
			for _, b := range []float64{0.05, 1, 5, 20} {
				if d := bw.midpoint(l, b, bc.AJ); !(d >= 0 && d <= 1) {
					t.Fatalf("block %d L=%v b=%v: midpoint D = %v", bi, l, b, d)
				}
				if d, ok := it.closedForm(l, b, bc.AJ); ok && !(d >= 0 && d <= 1) {
					t.Fatalf("block %d L=%v b=%v: closed-form D = %v", bi, l, b, d)
				}
				if d := it.failureProb(l, b, bc.AJ); !(d >= 0 && d <= 1) {
					t.Fatalf("block %d L=%v b=%v: D = %v", bi, l, b, d)
				}
				if d := it.lowerBound(l, b, bc.AJ); !(d >= 0 && d <= 1) {
					t.Fatalf("block %d L=%v b=%v: lower bound %v", bi, l, b, d)
				}
			}
		}
	}
}

// sweepChip is a chip of the given blocks, their areas scaled, with
// every block at α = 1 and the given b, so that ln(t/α) = ln t.
func sweepChip(blocks []blod.BlockChar, b, scale float64) *Chip {
	c := &Chip{Char: &blod.Characterization{Blocks: append([]blod.BlockChar(nil), blocks...)}}
	for j := range c.Char.Blocks {
		c.Char.Blocks[j].AJ *= scale
		c.Params = append(c.Params, obd.Params{Alpha: 1, B: b})
	}
	return c
}

// TestSaturationShortcutBelowReference holds the saturation lower bound
// at or below the l0 = 256 midpoint reference for every test block over
// a (L, b, A) sweep from the ppm regime to overflow. It also checks
// that chips of those blocks, all of them together and each alone,
// answer 1 by the shortcut only where the reference sum of their block
// integrals is at least 1 − 1e-6.
func TestSaturationShortcutBelowReference(t *testing.T) {
	blocks := integralBlocks(t)
	refs := make([]*blockWeights, len(blocks))
	for j := range blocks {
		bw, err := newBlockWeights(&blocks[j], 256)
		if err != nil {
			t.Fatal(err)
		}
		refs[j] = bw
	}
	// members[0] is every block; members[1+j] is block j alone.
	members := [][]int{nil}
	for j := range blocks {
		members[0] = append(members[0], j)
		members = append(members, []int{j})
	}
	var paths [3]int
	informative := 0
	ref := make([]float64, len(blocks))
	for b := 0.05; b <= 20; b *= 2.2 {
		for _, scale := range []float64{1e-6, 1, 1e6, 1e9} {
			engines := make([]*StFast, len(members))
			for c, m := range members {
				var bcs []blod.BlockChar
				for _, j := range m {
					bcs = append(bcs, blocks[j])
				}
				e, err := NewStFast(sweepChip(bcs, b, scale), DefaultL0)
				if err != nil {
					t.Fatal(err)
				}
				engines[c] = e
			}
			all := engines[0]
			for l := -60.0; l <= 40; l += 2.5 {
				for j, bi := range all.blocks {
					area := all.chip.Char.Blocks[j].AJ
					ref[j] = refs[j].midpoint(l, b, area)
					lb := bi.lowerBound(l, b, area)
					if lb > ref[j] {
						t.Fatalf("block %d L=%v b=%v A=%v: lower bound %v above reference %v", j, l, b, area, lb, ref[j])
					}
					if lb >= 0.5 {
						informative++
					}
				}
				for c, e := range engines {
					sum := 0.0
					for _, j := range members[c] {
						sum += ref[j]
					}
					p, path := e.failureAt(math.Exp(l))
					paths[path]++
					if path == pathSaturated && !(p == 1 && sum >= 1-1e-6) {
						t.Fatalf("blocks %v L=%v b=%v scale=%v: shortcut answered %v, reference sum %v",
							members[c], l, b, scale, p, sum)
					}
				}
			}
		}
	}
	if paths[pathClosed] == 0 || paths[pathSaturated] == 0 || paths[pathMidpoint] == 0 || informative == 0 {
		t.Errorf("sweep paths (closed, saturated, midpoint) = %v, %d bounds ≥ 0.5; want every kind", paths, informative)
	}
	t.Logf("chip paths (closed, saturated, midpoint) = %v; %d block bounds ≥ 0.5", paths, informative)
}

// TestClosedFormMissesUntrustedBracket pins the two series the closed
// form must not sum: one whose χ² moment does not exist
// (2·Â·c ≥ 1 at k = 1) and one whose terms grow before the bracket
// closes (A·g ≈ 5 on a degenerate block, where the second term is 2.5×
// the first). Both fall back to the midpoint rule.
func TestClosedFormMissesUntrustedBracket(t *testing.T) {
	blocks := integralBlocks(t)
	chi, deg := &blocks[0], &blocks[len(blocks)-1]
	if chi.Degenerate || !deg.Degenerate {
		t.Fatal("fixture blocks changed kind")
	}
	b := 1.0
	for _, c := range []struct {
		name string
		bc   *blod.BlockChar
		l    float64
	}{
		// c = 1/(2·Â): the first term's χ² moment diverges.
		{"chi2 moment", chi, -math.Sqrt(1 / chi.AHat)},
		// A·g(U0, V0) = 5 with U0·L·b dominating.
		{"growing terms", deg, (math.Log(5) - math.Log(deg.AJ)) / deg.U0},
	} {
		it, err := newBlockIntegral(c.bc, DefaultL0)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := it.closedForm(c.l, b, c.bc.AJ); ok {
			t.Errorf("%s (L=%v): closed form gave %v", c.name, c.l, d)
		}
		if got, want := it.failureProb(c.l, b, c.bc.AJ), it.weights().midpoint(c.l, b, c.bc.AJ); got != want {
			t.Errorf("%s (L=%v): D = %v, want the midpoint rule's %v", c.name, c.l, got, want)
		}
	}
}

// TestClosedFormRejectsNonFinite feeds NaN, infinite and nonpositive
// areas and exponents: the closed form never closes, the lower bound is
// 0, and a one-block chip never answers by the closed form or the
// saturation shortcut.
func TestClosedFormRejectsNonFinite(t *testing.T) {
	fx := newFixture(t)
	blocks := integralBlocks(t)
	nan, inf := math.NaN(), math.Inf(1)
	b0 := fx.chip.Params[0].B
	for _, bc := range []blod.BlockChar{blocks[0], blocks[len(blocks)-1]} {
		it, err := newBlockIntegral(&bc, DefaultL0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name       string
			l, b, area float64
		}{
			{"NaN L", nan, b0, bc.AJ},
			{"+Inf L", inf, b0, bc.AJ},
			{"-Inf L", -inf, b0, bc.AJ},
			{"NaN b", -10, nan, bc.AJ},
			{"+Inf b", -10, inf, bc.AJ},
			{"NaN area", -10, b0, nan},
			{"+Inf area", -10, b0, inf},
			{"-Inf area", -10, b0, -inf},
			{"zero area", -10, b0, 0},
			{"negative area", -10, b0, -bc.AJ},
			{"saturated, NaN area", 30, b0, nan},
			{"saturated, +Inf area", 30, b0, inf},
		} {
			if d, ok := it.closedForm(c.l, c.b, c.area); ok {
				t.Errorf("%s (degenerate %v): closed form gave %v", c.name, bc.Degenerate, d)
			}
			if d := it.lowerBound(c.l, c.b, c.area); d != 0 {
				t.Errorf("%s (degenerate %v): lower bound %v, want 0", c.name, bc.Degenerate, d)
			}
			one := bc
			one.AJ = c.area
			chip := &Chip{Char: &blod.Characterization{Blocks: []blod.BlockChar{one}},
				Params: []obd.Params{{Alpha: 1, B: c.b}}}
			e, err := NewStFast(chip, DefaultL0)
			if err != nil {
				t.Fatal(err)
			}
			if _, path := e.failureAt(math.Exp(c.l)); path != pathMidpoint {
				t.Errorf("%s (degenerate %v): chip path %d, want the midpoint rule", c.name, bc.Degenerate, path)
			}
		}
	}
}

// TestLazyFallbackConcurrent queries one engine from several goroutines
// at once, at times whose blocks fall back to the midpoint rule, so the
// lazily built weights are raced for; every answer matches a serial
// engine's.
func TestLazyFallbackConcurrent(t *testing.T) {
	fx := newFixture(t)
	_, aMax := fx.chip.AlphaRange()
	times := []float64{aMax * 1e-7, aMax, aMax * 100}
	serial, err := NewStFast(fx.chip, DefaultL0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(times))
	for i, tt := range times {
		for j := range serial.blocks {
			d, err := serial.BlockFailureProb(j, tt)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], d)
		}
	}
	e, err := NewStFast(fx.chip, DefaultL0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, tt := range times {
				for j := range e.blocks {
					jj := (j + g) % len(e.blocks)
					d, err := e.BlockFailureProb(jj, tt)
					if err != nil || d != want[i][jj] {
						t.Errorf("goroutine %d block %d t=%v: %v (%v), want %v", g, jj, tt, d, err, want[i][jj])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	fell := 0
	for _, bi := range e.blocks {
		if bi.bw != nil {
			fell++
		}
	}
	if fell == 0 {
		t.Error("no block fell back to the midpoint rule")
	}
}

// BenchmarkBlockFailureProb times one block integral at the default
// order: the midpoint fallback in each regime, ppm (every row by
// series) and saturated (every row direct, nearly every cell by the
// saturated-cell shortcut); the closed form at the ppm point; and the
// chip evaluation at t = α_max, the saturated probe every LifetimePPM
// bracket starts from, answered by the saturation shortcut.
func BenchmarkBlockFailureProb(b *testing.B) {
	fx := newFixture(b)
	bc := &fx.chip.Char.Blocks[0]
	bw, err := newBlockWeights(bc, DefaultL0)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewStFast(fx.chip, DefaultL0)
	if err != nil {
		b.Fatal(err)
	}
	life, err := LifetimePPM(e, fx.chip, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := fx.chip.Params[0]
	lPPM := math.Log(life / p.Alpha)
	for _, c := range []struct {
		name   string
		l      float64
		series bool // every row by series, else every row direct
	}{{"ppm", lPPM, true}, {"saturated", 2, false}} {
		b.Run(c.name, func(b *testing.B) {
			if s, d := rowSplit(bw, c.l, p.B, bc.AJ); (c.series && d > 0) || (!c.series && s > 0) {
				b.Fatalf("L=%v: %d series and %d direct rows", c.l, s, d)
			}
			for i := 0; i < b.N; i++ {
				benchSink = bw.midpoint(c.l, p.B, bc.AJ)
			}
		})
	}
	b.Run("closed", func(b *testing.B) {
		if _, ok := e.blocks[0].closedForm(lPPM, p.B, bc.AJ); !ok {
			b.Fatalf("L=%v: the closed form did not close", lPPM)
		}
		for i := 0; i < b.N; i++ {
			benchSink, _ = e.blocks[0].closedForm(lPPM, p.B, bc.AJ)
		}
	})
	b.Run("alpha_max", func(b *testing.B) {
		_, aMax := fx.chip.AlphaRange()
		if _, path := e.failureAt(aMax); path != pathSaturated {
			b.Fatalf("t = α_max took path %d, want the saturation shortcut", path)
		}
		for i := 0; i < b.N; i++ {
			benchSink, _ = e.failureAt(aMax)
		}
	})
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink float64

// midpointEngine is st_fast with every block summed by the Fig. 9
// midpoint rule, the algorithm as the paper states it: the engine of
// the l0 ablation and of TestL0Convergence.
type midpointEngine struct {
	chip *Chip
	bws  []*blockWeights
}

func newMidpointEngine(c *Chip, l0 int) (*midpointEngine, error) {
	e := &midpointEngine{chip: c}
	for j := range c.Char.Blocks {
		bw, err := newBlockWeights(&c.Char.Blocks[j], l0)
		if err != nil {
			return nil, err
		}
		e.bws = append(e.bws, bw)
	}
	return e, nil
}

func (e *midpointEngine) Name() string { return "st_fast_midpoint" }

func (e *midpointEngine) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	sum := 0.0
	for j, bw := range e.bws {
		p := e.chip.Params[j]
		d := bw.midpoint(math.Log(t/p.Alpha), p.B, e.chip.Char.Blocks[j].AJ)
		sum += combineFailure(d, e.chip.extrinsicHazard(j, t))
	}
	return math.Min(sum, 1), nil
}

// BenchmarkAblation_L0 sweeps the resolution of the Fig. 9 midpoint
// rule over one lifetime solve (the paper claims l0 = 10 suffices);
// "closed" is st_fast, whose closed form has no l0.
func BenchmarkAblation_L0(b *testing.B) {
	fx := newFixture(b)
	run := func(name string, e Engine) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if benchSink, err = LifetimePPM(e, fx.chip, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, l0 := range []int{5, 10, 32, 64} {
		e, err := newMidpointEngine(fx.chip, l0)
		if err != nil {
			b.Fatal(err)
		}
		run(fmt.Sprintf("l0=%d", l0), e)
	}
	e, err := NewStFast(fx.chip, DefaultL0)
	if err != nil {
		b.Fatal(err)
	}
	run("closed", e)
}
