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

// blockWeights caches the midpoint-rule abscissae and PDF weights of
// one block's (u, v) integration domain. The weights depend only on
// the BLOD marginals, not on (t, α, b), so they are computed once per
// block and reused across every integrand evaluation — this is what
// makes lifetime solves and hybrid-table construction cheap.
type blockWeights struct {
	us, vs []float64 // midpoints
	w      []float64 // f_u(u)·f_v(v)·du·dv, row-major [iu*len(vs)+iv]
	wsum   float64
}

// qEps is the quantile at which the integration domain is truncated.
// The truncated tail mass (~4·qEps per block) bounds the absolute
// error of the block failure probability, so it must sit far below
// the parts-per-million targets of the analysis.
const qEps = 1e-12

// newBlockWeights builds the l0×l0 midpoint grid of the paper's
// Fig. 9 algorithm (step 2–3) for one block. For a degenerate block
// (v_j deterministic) the v axis collapses to the single atom.
func newBlockWeights(bc *blod.BlockChar, l0 int) (*blockWeights, error) {
	if l0 <= 0 {
		l0 = 10
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
	for i := 0; i < l0; i++ {
		bw.us = append(bw.us, uLo+(float64(i)+0.5)*du)
	}
	if _, deg := vd.(stats.Degenerate); deg {
		bw.vs = []float64{vd.Mean()}
		for _, u := range bw.us {
			wt := ud.PDF(u) * du
			bw.w = append(bw.w, wt)
			bw.wsum += wt
		}
		return bw, nil
	}
	vLo, vHi := vd.Quantile(qEps), vd.Quantile(1-qEps)
	if !(vHi > vLo) {
		// Numerically flat v distribution: treat as degenerate.
		bw.vs = []float64{vd.Mean()}
		for _, u := range bw.us {
			wt := ud.PDF(u) * du
			bw.w = append(bw.w, wt)
			bw.wsum += wt
		}
		return bw, nil
	}
	dv := (vHi - vLo) / float64(l0)
	for j := 0; j < l0; j++ {
		bw.vs = append(bw.vs, vLo+(float64(j)+0.5)*dv)
	}
	for _, u := range bw.us {
		fu := ud.PDF(u) * du
		for _, v := range bw.vs {
			wt := fu * vd.PDF(v) * dv
			bw.w = append(bw.w, wt)
			bw.wsum += wt
		}
	}
	return bw, nil
}

// failureProb evaluates the block's ensemble failure probability
//
//	D_j(L, b) = ∫∫ (1 - exp(-A_j·g(u,v))) f_u(u) f_v(v) du dv
//
// on the cached midpoint grid. Computing D_j (rather than the
// reliability integral I_j = 1 - D_j) keeps ppm-scale results exact:
// the integrand uses expm1 and the truncated tail mass only ever
// drops ~qEps of probability.
func (bw *blockWeights) failureProb(l, b, area float64) float64 {
	d := 0.0
	k := 0
	for _, u := range bw.us {
		for _, v := range bw.vs {
			g := GValue(l, b, u, v)
			d += bw.w[k] * -math.Expm1(-area*g)
			k++
		}
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
