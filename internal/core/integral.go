package core

import (
	"math"
	"sync"

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

// blockIntegral evaluates one block's ensemble failure probability
//
//	D_j(L, b) = ∫∫ (1 - exp(-A_j·g(u,v))) f_u(u) f_v(v) du dv
//
// (Eq. 28's double integral). Both marginals have closed-form
// moment-generating functions, u ~ N(U0, σ_u²) and
// v = V0 + Â·χ²(b̂) (Eq. 29–30), so closedForm sums D_j as a series
// with a rigorous bracket. Where the bracket cannot be trusted the
// l0×l0 midpoint rule of the Fig. 9 algorithm answers instead; its
// weights are built on the first such call.
type blockIntegral struct {
	ud stats.Normal // σ_u as UDist floors it
	vd stats.Dist
	// v0, aHat and bHat are v's parameters; aHat = 0 marks a
	// degenerate v.
	v0, aHat, bHat float64
	l0             int

	once sync.Once
	bw   *blockWeights
}

// newBlockIntegral validates the block's marginals; the weights of
// the l0×l0 midpoint fallback are left for the first fallback.
func newBlockIntegral(bc *blod.BlockChar, l0 int) (*blockIntegral, error) {
	ud, err := bc.UDist()
	if err != nil {
		return nil, err
	}
	vd, err := bc.VDist()
	if err != nil {
		return nil, err
	}
	bi := &blockIntegral{ud: ud, vd: vd, v0: bc.V0, l0: l0}
	if chi, ok := vd.(stats.ShiftedScaledChi2); ok {
		bi.aHat, bi.bHat = chi.A, chi.Chi2.K
	}
	return bi, nil
}

// failureProb is D_j by the closed form, or by the midpoint rule where
// the closed form's bracket does not close.
func (bi *blockIntegral) failureProb(l, b, area float64) float64 {
	if d, ok := bi.closedForm(l, b, area); ok {
		return d
	}
	return bi.weights().midpoint(l, b, area)
}

// weights returns the block's midpoint weights, building them on the
// first call. Engines share their blockIntegrals across concurrent
// queries, so the build is guarded by a sync.Once.
func (bi *blockIntegral) weights() *blockWeights {
	bi.once.Do(func() { bi.bw = midpointWeights(bi.ud, bi.vd, bi.l0) })
	return bi.bw
}

// maxTerms caps the closed form's series, and closeTol is the relative
// bracket width at which it stops.
const (
	maxTerms = 64
	closeTol = 1e-12
)

// lnFactorial[k] = ln k!.
var lnFactorial = func() (f [maxTerms + 1]float64) {
	for k := 2; k <= maxTerms; k++ {
		f[k] = f[k-1] + math.Log(float64(k))
	}
	return f
}()

// closedForm sums D_j term by term. Expanding 1 − e^(−A·g) in its
// exponential series and taking the MGFs of u and v, with
// c = (L·b)²/2,
//
//	D_j = Σ_k (−1)^(k+1)/k! · A^k · exp(k·L·b·U0 + k²·c·σ_u² + k·c·V0) · (1 − 2·Â·k·c)^(−b̂/2).
//
// For x ≥ 0 the Taylor partial sums of 1 − e^(−x) alternate between
// upper and lower bounds, and expectations keep the order, so D_j lies
// between any two adjacent partial sums. The sum stops at the first
// term within closeTol of the sum; the terms are formed in log space.
//
// ok is false, and the caller must evaluate D_j another way, where the
// bracket cannot be trusted: when 2·Â·k·c ≥ 1 (the χ² moment does not
// exist), when the terms grow before the bracket closes (the series is
// asymptotic there, typically for D_j near 1), when the sum's rounding
// error could exceed the bracket, and when the area or L·b is NaN,
// infinite or (for the area) nonpositive.
func (bi *blockIntegral) closedForm(l, b, area float64) (d float64, ok bool) {
	lb := l * b
	if !trusted(lb, area) {
		return 0, false
	}
	c := lb * lb / 2
	su := bi.ud.Sigma
	lin := math.Log(area) + lb*bi.ud.Mu + c*bi.v0 // the exponent's coefficient of k
	quad := c * su * su                           // and of k²
	sum, mag, prev := 0.0, 0.0, math.MaxFloat64
	for k := 1; k <= maxTerms; k++ {
		fk := float64(k)
		lt := fk*lin + fk*fk*quad - lnFactorial[k]
		if bi.aHat > 0 {
			s := 2 * bi.aHat * fk * c
			if !(s < 1) {
				return 0, false
			}
			lt -= bi.bHat / 2 * math.Log1p(-s)
		}
		term := math.Exp(lt)
		// Growing, NaN and +Inf terms all fail this test.
		if !(term <= prev) {
			return 0, false
		}
		if k%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
		mag += term
		if term <= closeTol*math.Abs(sum) {
			// Each add rounds by at most half an ulp of the running
			// magnitude; the bracket is trusted only above that.
			if fk*mag*0x1p-53 > closeTol*math.Abs(sum) {
				return 0, false
			}
			return math.Min(math.Max(sum, 0), 1), true
		}
		prev = term
	}
	return 0, false
}

// trusted reports whether the closed form and the saturation bound may
// be evaluated at all: a positive finite area and a finite L·b.
func trusted(lb, area float64) bool {
	return area > 0 && area <= math.MaxFloat64 && math.Abs(lb) <= math.MaxFloat64
}

// phi6 is Φ(6), the standard normal probability below six sigma.
var phi6 = 1 - math.Erfc(6/math.Sqrt2)/2

// lowerBound is a rigorous lower bound on D_j for blocks the closed
// form misses. v ≥ V0 always, and L·b·u ≥ L·b·U0 − 6·|L·b|·σ_u with
// probability Φ(6), so with c = (L·b)²/2
//
//	D_j ≥ Φ(6)·(1 − exp(−A·exp(L·b·U0 − 6·|L·b|·σ_u + c·V0))).
//
// It is 0 where the inputs are not trusted.
func (bi *blockIntegral) lowerBound(l, b, area float64) float64 {
	lb := l * b
	if !trusted(lb, area) {
		return 0
	}
	x := lb*bi.ud.Mu - 6*math.Abs(lb)*bi.ud.Sigma + lb*lb/2*bi.v0
	d := phi6 * -math.Expm1(-area*math.Exp(x))
	if !(d >= 0) {
		return 0
	}
	return d
}

// blockWeights caches the abscissae and marginal PDF weights of the
// l0×l0 midpoint rule over one block's (u, v) integration domain. The
// rule's weights factor as fu[i]·fv[j], so only the 2·l0 marginal
// weights are stored. They depend only on the BLOD marginals, not on
// (t, α, b), so they are computed once per block and reused across
// every integrand evaluation.
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

// seriesK is the number of exponential-series terms midpoint sums
// for an unsaturated row (largest A·g ≤ 1). The alternating series'
// truncation error is below its first omitted term, so the relative
// error is at most 1/(seriesK+1)! ≈ 2e-20, far below rounding.
const seriesK = 20

// lnSaturated is ln 40, the cell exponent past which midpoint takes a
// cell's 1 − exp(−A·g) to be exactly 1 (see midpoint).
var lnSaturated = math.Log(40)

// minNormal is the smallest normal float64; products below it are
// dropped from the series moments instead of crawling through
// denormals.
const minNormal = 0x1p-1022

// midpointWeights builds the marginals of the l0×l0 midpoint grid of
// the paper's Fig. 9 algorithm (step 2–3). For a degenerate block (v_j
// deterministic) the v axis collapses to the single atom.
func midpointWeights(ud stats.Normal, vd stats.Dist, l0 int) *blockWeights {
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
		return bw
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
	return bw
}

// midpoint evaluates the block's ensemble failure probability D_j with
// the cached midpoint rule: the fallback for what closedForm misses. Computing D_j (rather than the
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
func (bw *blockWeights) midpoint(l, b, area float64) float64 {
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
