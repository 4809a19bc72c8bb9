package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width 1-D histogram over [Lo, Hi). Values
// outside the range are clamped into the end bins, so every Add is
// counted; that matches the paper's use of histograms as truncated
// frequency distributions (Section IV-A).
type Histogram struct {
	Lo, Hi float64
	Counts []float64
	N      float64
}

// NewHistogram returns a histogram with bins equal-width bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) || bins <= 0 {
		return nil, fmt.Errorf("stats: invalid histogram [%v,%v) with %d bins", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, bins)}, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Counts) }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinIndex returns the bin x falls into, clamped to the valid range.
func (h *Histogram) BinIndex(x float64) int {
	i := int((x - h.Lo) / h.BinWidth())
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Mid returns the midpoint of bin i.
func (h *Histogram) Mid(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted records an observation with weight w.
func (h *Histogram) AddWeighted(x, w float64) {
	h.Counts[h.BinIndex(x)] += w
	h.N += w
}

// Density returns the normalized density of bin i (counts integrate
// to 1 over the histogram range).
func (h *Histogram) Density(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return h.Counts[i] / (h.N * h.BinWidth())
}

// Mean returns the histogram mean using bin midpoints.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	s := 0.0
	for i, c := range h.Counts {
		s += c * h.Mid(i)
	}
	return s / h.N
}

// Variance returns the histogram variance using bin midpoints
// (population form, since bins aggregate many observations).
func (h *Histogram) Variance() float64 {
	if h.N == 0 {
		return 0
	}
	m := h.Mean()
	s := 0.0
	for i, c := range h.Counts {
		d := h.Mid(i) - m
		s += c * d * d
	}
	return s / h.N
}

// RSquareAgainst returns the R² goodness of fit between the histogram
// densities and the model density evaluated at bin midpoints. This is
// the fit measure the paper quotes for the BLOD Gaussian property
// (Fig. 4: 99.8% / 99.5%).
func (h *Histogram) RSquareAgainst(pdf func(float64) float64) float64 {
	if h.N == 0 {
		return 0
	}
	n := len(h.Counts)
	obs := make([]float64, n)
	fit := make([]float64, n)
	var mean float64
	for i := range h.Counts {
		obs[i] = h.Density(i)
		fit[i] = pdf(h.Mid(i))
		mean += obs[i]
	}
	mean /= float64(n)
	var ssRes, ssTot float64
	for i := range obs {
		ssRes += (obs[i] - fit[i]) * (obs[i] - fit[i])
		ssTot += (obs[i] - mean) * (obs[i] - mean)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Histogram2D is a fixed-width 2-D histogram over
// [XLo, XHi) × [YLo, YHi), used to build the numerical joint PDF of
// (u_j, v_j) for the st_MC engine and the Fig. 6/7 experiments.
type Histogram2D struct {
	XLo, XHi, YLo, YHi float64
	XBins, YBins       int
	Counts             []float64
	N                  float64
}

// NewHistogram2D returns an xBins×yBins 2-D histogram.
func NewHistogram2D(xlo, xhi float64, xBins int, ylo, yhi float64, yBins int) (*Histogram2D, error) {
	if !(xhi > xlo) || !(yhi > ylo) || xBins <= 0 || yBins <= 0 {
		return nil, fmt.Errorf("stats: invalid 2-D histogram [%v,%v)×[%v,%v) %d×%d",
			xlo, xhi, ylo, yhi, xBins, yBins)
	}
	return &Histogram2D{
		XLo: xlo, XHi: xhi, YLo: ylo, YHi: yhi,
		XBins: xBins, YBins: yBins,
		Counts: make([]float64, xBins*yBins),
	}, nil
}

// XWidth and YWidth return bin widths.
func (h *Histogram2D) XWidth() float64 { return (h.XHi - h.XLo) / float64(h.XBins) }

// YWidth returns the y bin width.
func (h *Histogram2D) YWidth() float64 { return (h.YHi - h.YLo) / float64(h.YBins) }

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Add records one (x, y) observation; coordinates are clamped into
// the edge bins.
func (h *Histogram2D) Add(x, y float64) {
	i := clampIdx(int((x-h.XLo)/h.XWidth()), h.XBins)
	j := clampIdx(int((y-h.YLo)/h.YWidth()), h.YBins)
	h.Counts[i*h.YBins+j]++
	h.N++
}

// XMid and YMid return bin midpoints.
func (h *Histogram2D) XMid(i int) float64 { return h.XLo + (float64(i)+0.5)*h.XWidth() }

// YMid returns the midpoint of y-bin j.
func (h *Histogram2D) YMid(j int) float64 { return h.YLo + (float64(j)+0.5)*h.YWidth() }

// Prob returns the joint probability mass of cell (i, j).
func (h *Histogram2D) Prob(i, j int) float64 {
	if h.N == 0 {
		return 0
	}
	return h.Counts[i*h.YBins+j] / h.N
}

// MarginalX returns the x marginal probability masses.
func (h *Histogram2D) MarginalX() []float64 {
	out := make([]float64, h.XBins)
	for i := 0; i < h.XBins; i++ {
		for j := 0; j < h.YBins; j++ {
			out[i] += h.Prob(i, j)
		}
	}
	return out
}

// MarginalY returns the y marginal probability masses.
func (h *Histogram2D) MarginalY() []float64 {
	out := make([]float64, h.YBins)
	for j := 0; j < h.YBins; j++ {
		for i := 0; i < h.XBins; i++ {
			out[j] += h.Prob(i, j)
		}
	}
	return out
}

// MutualInformation estimates I(X;Y) in nats from the 2-D histogram:
// Σ p(i,j) ln(p(i,j) / (p(i)p(j))). This is the measure the paper
// quotes (0.003) as evidence that u_j and v_j are nearly independent.
func (h *Histogram2D) MutualInformation() float64 {
	px := h.MarginalX()
	py := h.MarginalY()
	mi := 0.0
	for i := 0; i < h.XBins; i++ {
		for j := 0; j < h.YBins; j++ {
			p := h.Prob(i, j)
			if p == 0 || px[i] == 0 || py[j] == 0 {
				continue
			}
			mi += p * math.Log(p/(px[i]*py[j]))
		}
	}
	if mi < 0 { // guard against rounding
		mi = 0
	}
	return mi
}

// MaxNormalizedProductError returns max over cells of
// |p(i,j) - p(i)p(j)| / max p(i,j) — the Fig. 7 error measure
// (normalized w.r.t. the peak joint probability).
func (h *Histogram2D) MaxNormalizedProductError() float64 {
	px := h.MarginalX()
	py := h.MarginalY()
	peak := 0.0
	for i := 0; i < h.XBins; i++ {
		for j := 0; j < h.YBins; j++ {
			if p := h.Prob(i, j); p > peak {
				peak = p
			}
		}
	}
	if peak == 0 {
		return 0
	}
	max := 0.0
	for i := 0; i < h.XBins; i++ {
		for j := 0; j < h.YBins; j++ {
			if e := math.Abs(h.Prob(i, j) - px[i]*py[j]); e > max {
				max = e
			}
		}
	}
	return max / peak
}
