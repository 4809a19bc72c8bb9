package core

import (
	"math"
	"testing"

	"obdrel/internal/blod"
)

// directFailureProb is the O(l0²) reference for blockWeights.failureProb:
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

// rowSumFailureProb is blockWeights.failureProb without the
// saturated-cell shortcut: series rows as there, and every cell of a
// direct row through GValue and expm1. failureProb must match it bit
// for bit.
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

// satSplit counts, over failureProb's direct rows, the cells it adds
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

// rowSplit counts the rows failureProb sums by series (largest A·g ≤ 1)
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

// TestFailureProbMatchesDirectSum holds the factored evaluation to the
// term-by-term midpoint sum over every test block, rule order, and a
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
						got := bw.failureProb(l, b, area)
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

// TestSaturatedCellsBitIdentical holds failureProb to the sum without
// the saturated-cell shortcut, bit for bit, over every test block, rule
// order, and a (L, b, A) sweep from the ppm regime to overflow.
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
						got, want := bw.failureProb(l, b, area), rowSumFailureProb(bw, l, b, area)
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
// and areas: failureProb stays bit-identical to the unshortcut sum.
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
		got, want := bw.failureProb(l, b, area), rowSumFailureProb(bw, l, b, area)
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
		got, want := bw.failureProb(l, b, bc.AJ), directFailureProb(bw, l, b, bc.AJ)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("L=%v (%d series, %d direct rows): factored %v, direct %v", l, s, d, got, want)
		}
		return
	}
	t.Fatal("no L in [-40, 5] splits the rows")
}

// TestFailureProbFiniteAtExtremes sweeps ln(t/α) far past the lifetime
// solver's bracket: no NaN, no Inf, always a probability.
func TestFailureProbFiniteAtExtremes(t *testing.T) {
	for bi, bc := range integralBlocks(t) {
		bw, err := newBlockWeights(&bc, DefaultL0)
		if err != nil {
			t.Fatal(err)
		}
		for l := -200.0; l <= 50; l += 0.5 {
			for _, b := range []float64{0.05, 1, 5, 20} {
				if d := bw.failureProb(l, b, bc.AJ); !(d >= 0 && d <= 1) {
					t.Fatalf("block %d L=%v b=%v: D = %v", bi, l, b, d)
				}
			}
		}
	}
}

// BenchmarkBlockFailureProb times one block integral at the default
// order in each regime: ppm (every row by series) and saturated (every
// row direct, nearly every cell by the saturated-cell shortcut).
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
	for _, c := range []struct {
		name   string
		l      float64
		series bool // every row by series, else every row direct
	}{{"ppm", math.Log(life / p.Alpha), true}, {"saturated", 2, false}} {
		b.Run(c.name, func(b *testing.B) {
			if s, d := rowSplit(bw, c.l, p.B, bc.AJ); (c.series && d > 0) || (!c.series && s > 0) {
				b.Fatalf("L=%v: %d series and %d direct rows", c.l, s, d)
			}
			for i := 0; i < b.N; i++ {
				benchSink = bw.failureProb(c.l, p.B, bc.AJ)
			}
		})
	}
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink float64
