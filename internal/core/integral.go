package core

import (
	"math"

	"obdrel/internal/blod"
	"obdrel/internal/stats"
)

// GValue evaluates the paper's closed form (Eq. 17)
//
//	g(u, v) = exp(L·b·u + L²·b²·v/2),  L = ln(t/α)
//
// — the block-level expected per-area failure exponent for a BLOD with
// mean u and variance v.
func GValue(l, b, u, v float64) float64 {
	return math.Exp(l*b*u + l*l*b*b*v/2)
}

// blockWeights caches the abscissae and marginal PDF weights of the
// l0×l0 midpoint rule over one block's (u, v) integration domain. The
// rule's weights factor as fu[i]·fv[j], so only the 2·l0 marginal
// weights are stored. They depend only on the BLOD marginals, not on
// (t, α, b), so they are computed once per block and reused across
// every integrand evaluation — lifetime solves, hybrid-table fills and
// burn-in screens.
type blockWeights struct {
	us, vs []float64 // midpoints; vs ascending
	fu     []float64 // f_u(us[i])·du
	fv     []float64 // f_v(vs[j])·dv (a single 1 for a degenerate v)
	wsum   float64   // Σ fu · Σ fv, the captured PDF mass
}

// qEps is the quantile at which the integration domain is truncated.
// The truncated tail mass (~4·qEps per block) bounds the absolute
// error of the block failure probability, so it must sit far below
// the parts-per-million targets of the analysis.
const qEps = 1e-12

// seriesK is the number of exponential-series terms failureProb sums
// for an unsaturated row (largest A·g ≤ 1). The alternating series'
// truncation error is below its first omitted term, so the relative
// error is at most 1/(seriesK+1)! ≈ 2e-20, far below rounding.
const seriesK = 20

// lnSaturated is ln 40, the cell exponent past which failureProb takes
// a cell's 1 − exp(−A·g) to be exactly 1 (see failureProb).
var lnSaturated = math.Log(40)

// minNormal is the smallest normal float64; products below it are
// dropped from the series moments instead of crawling through
// denormals.
const minNormal = 0x1p-1022

// newBlockWeights builds the marginals of the l0×l0 midpoint grid of
// the paper's Fig. 9 algorithm (step 2–3) for one block. For a
// degenerate block (v_j deterministic) the v axis collapses to the
// single atom.
func newBlockWeights(bc *blod.BlockChar, l0 int) (*blockWeights, error) {
	if l0 <= 0 {
		l0 = DefaultL0
	}
	ud, err := bc.UDist()
	if err != nil {
		return nil, err
	}
	vd, err := bc.VDist()
	if err != nil {
		return nil, err
	}
	uLo, uHi := ud.Quantile(qEps), ud.Quantile(1-qEps)
	bw := &blockWeights{}
	du := (uHi - uLo) / float64(l0)
	usum := 0.0
	for i := 0; i < l0; i++ {
		u := uLo + (float64(i)+0.5)*du
		wt := ud.PDF(u) * du
		bw.us = append(bw.us, u)
		bw.fu = append(bw.fu, wt)
		usum += wt
	}
	_, deg := vd.(stats.Degenerate)
	vLo, vHi := vd.Quantile(qEps), vd.Quantile(1-qEps)
	// A numerically flat v distribution is treated as degenerate.
	if deg || !(vHi > vLo) {
		bw.vs = []float64{vd.Mean()}
		bw.fv = []float64{1}
		bw.wsum = usum
		return bw, nil
	}
	dv := (vHi - vLo) / float64(l0)
	vsum := 0.0
	for j := 0; j < l0; j++ {
		v := vLo + (float64(j)+0.5)*dv
		wt := vd.PDF(v) * dv
		bw.vs = append(bw.vs, v)
		bw.fv = append(bw.fv, wt)
		vsum += wt
	}
	bw.wsum = usum * vsum
	return bw, nil
}

// failureProb evaluates the block's ensemble failure probability
//
//	D_j(L, b) = ∫∫ (1 - exp(-A_j·g(u,v))) f_u(u) f_v(v) du dv
//
// with the cached midpoint rule. Computing D_j (rather than the
// reliability integral I_j = 1 - D_j) keeps ppm-scale results exact:
// the integrand uses expm1 and the truncated tail mass only ever
// drops ~qEps of probability.
//
// The rule is evaluated row by row over the u midpoints. With
// c = (L·b)²/2 ≥ 0 the exponent L·b·u + c·v is nondecreasing in v, so
// a row's largest A·g sits at v_max:
//
//	y_i = A·g(u_i, v_max),  A·g(u_i, v_j) = y_i·e_j,  e_j = exp(c·(v_j − v_max)) ≤ 1
//
// When y_i ≤ 1, expanding 1 − exp(−y_i·e_j) in its exponential series
// gives the row sum
//
//	Σ_j fv_j·(1 − exp(−y_i·e_j)) = Σ_{k=1..K} (−1)^(k+1)·y_i^k/k!·S_k,  S_k = Σ_j fv_j·e_j^k,
//
// with K = seriesK. The moments S_k are computed once per call and
// shared by every row, so a row costs one exp and a K-term Horner
// polynomial in y_i instead of l0 exp/expm1 pairs.
//
// Rows with y_i > 1 keep the direct sum, up to the first saturated
// cell. A cell whose exponent L·b·u_i + (L·b)²·v_j/2 + ln A reaches
// ln 40 has A·g ≥ 40 (up to rounding far below the 0.03 margin) and so
// A·g > 56·ln 2 ≈ 38.82, past which math.Expm1 returns exactly −1: its
// term is fv_j·1. The exponent is nondecreasing in v, so the saturated
// cells are a suffix of the row, and the row adds their fv_j in order
// without an exp or expm1. This is bit-identical to summing every
// cell directly. Nonpositive or infinite areas, and NaN exponents,
// never take the shortcut.
func (bw *blockWeights) failureProb(l, b, area float64) float64 {
	lb := l * b
	c := lb * lb / 2
	llbb := l * l * b * b // GValue's form of (L·b)², for the saturation test
	vMax := bw.vs[len(bw.vs)-1]
	lnA := math.Log(area)
	yOff := c*vMax + lnA
	// Cells whose exponent reaches eSat have 1 − exp(−A·g) exactly 1.
	eSat, canSat := lnSaturated-lnA, area > 0 && area <= math.MaxFloat64
	var a [seriesK]float64 // series coefficients (−1)^k·S_(k+1)/(k+1)!
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
			j := 0
			for ; j < len(bw.vs); j++ {
				v := bw.vs[j]
				if canSat && lb*u+llbb*v/2 >= eSat {
					break
				}
				row += bw.fv[j] * -math.Expm1(-area*GValue(l, b, u, v))
			}
			for ; j < len(bw.vs); j++ {
				row += bw.fv[j]
			}
		}
		d += bw.fu[i] * row
	}
	// Normalize by the captured PDF mass so that midpoint-rule
	// discretization of the marginals does not bias the result.
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

// invFactorial[k] = 1/(k+1)!.
var invFactorial = func() (f [seriesK]float64) {
	x := 1.0
	for k := range f {
		x /= float64(k + 1)
		f[k] = x
	}
	return f
}()

// seriesCoeffs fills a[k] = (−1)^k·S_(k+1)/(k+1)! for k < seriesK, the
// coefficients of the row series in powers of y, from the moments
// S_k = Σ_j fv_j·exp(c·(v_j − v_max))^k. Every exponent is ≤ 0, so
// nothing overflows.
func (bw *blockWeights) seriesCoeffs(c, vMax float64, a *[seriesK]float64) {
	for j, v := range bw.vs {
		e := math.Exp(c * (v - vMax))
		p := bw.fv[j]
		for k := 0; k < seriesK && p >= minNormal; k++ {
			p *= e
			a[k] += p
		}
	}
	for k := range a {
		a[k] *= invFactorial[k]
		if k%2 == 1 {
			a[k] = -a[k]
		}
	}
}
