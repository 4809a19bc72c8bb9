package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"obdrel/internal/grid"
	"obdrel/internal/mathx"
	"obdrel/internal/par"
)

// MonteCarlo is the device-level reference simulation (Section V's
// "MC"): every sample chip draws the principal components, then every
// single device draws its independent thickness component, and the
// chip's conditional reliability follows from the exact product over
// devices (Eq. 10):
//
//	R(t | x) = exp(-Σ_i (t/α_j)^(b_j·x_i)) = exp(-Σ_i e^(w_i·L_j))
//
// with w_i = b_j·x_i and L_j = ln(t/α_j). The ensemble reliability is
// the average over sample chips.
//
// To evaluate many time points per sample without re-walking millions
// of devices, each sample bins its w_i values into a fine per-block
// histogram (WBins bins over ±8σ of thickness); the per-time sum then
// costs O(N·WBins) using the geometric progression
// e^(w_{i+1}·L) = e^(w_i·L)·e^(Δw·L). With the default 512 bins the
// binning error is below 10⁻⁶ relative — far under the Monte-Carlo
// noise floor.
//
// Sample generation is embarrassingly parallel and fans out over
// GOMAXPROCS workers with per-sample deterministic seeds, so results
// are reproducible regardless of parallelism.
type MonteCarlo struct {
	chip *Chip
	// Samples is the number of sample chips (paper: 1000).
	Samples int
	// WBins is the per-block w-histogram resolution.
	WBins int
	// Workers is the query-path worker count (0 = GOMAXPROCS,
	// 1 = exact serial path). Queries reduce over samples with the
	// deterministic chunk plan of internal/par, so any Workers ≥ 2
	// produce bit-identical results.
	Workers int

	// hists[s] holds sample s's concatenated per-block histograms
	// (N·WBins counts).
	hists [][]float32
	// wLo and dW are per-block histogram geometry.
	wLo, dW []float64
	seed    int64
}

// MCOptions configures NewMonteCarlo. Zero values select 1000 samples,
// 512 bins, and GOMAXPROCS workers.
type MCOptions struct {
	Samples int
	WBins   int
	Seed    int64
	// Workers bounds the sampling and query parallelism (0 =
	// GOMAXPROCS, 1 = serial).
	Workers int
}

// NewMonteCarlo runs the sampling phase (the expensive part, linear in
// devices × samples) and retains only the per-block w histograms.
func NewMonteCarlo(c *Chip, pca *grid.PCA, opts MCOptions) (*MonteCarlo, error) {
	if c == nil || pca == nil {
		return nil, errors.New("core: nil chip or PCA")
	}
	if pca.Nx*pca.Ny != c.Model.NumGrids() {
		return nil, fmt.Errorf("core: PCA covers %d grids, model has %d", pca.Nx*pca.Ny, c.Model.NumGrids())
	}
	e := &MonteCarlo{chip: c, Samples: opts.Samples, WBins: opts.WBins, Workers: opts.Workers, seed: opts.Seed}
	if e.Samples <= 0 {
		e.Samples = 1000
	}
	if e.WBins <= 0 {
		e.WBins = 512
	}
	n := c.NumBlocks()
	m := c.Model
	sigmaTot := math.Sqrt(m.SigmaG*m.SigmaG + m.SigmaS*m.SigmaS + m.SigmaE*m.SigmaE)
	// Histogram range: ±8σ around the extreme per-grid nominals (the
	// nominals differ across grids when a wafer pattern is active).
	nomLo, nomHi := m.U0, m.U0
	for g := 0; g < m.NumGrids(); g++ {
		nom := m.NominalAt(g)
		if nom < nomLo {
			nomLo = nom
		}
		if nom > nomHi {
			nomHi = nom
		}
	}
	e.wLo = make([]float64, n)
	e.dW = make([]float64, n)
	for j := 0; j < n; j++ {
		b := c.Params[j].B
		lo := b * (nomLo - 8*sigmaTot)
		hi := b * (nomHi + 8*sigmaTot)
		e.wLo[j] = lo
		e.dW[j] = (hi - lo) / float64(e.WBins)
	}
	// Per-block integer device placement, shared by all samples.
	allocGrids := make([][]int, n)
	allocCounts := make([][]int, n)
	for j := 0; j < n; j++ {
		allocGrids[j], allocCounts[j] = c.Char.Blocks[j].DeviceAllocation()
	}

	// Per-sample deterministic seeds make the sampling phase
	// order-independent; the atomic-counter pool in par avoids the
	// unbuffered-channel handoff the old producer serialized on.
	e.hists = make([][]float32, e.Samples)
	par.For(e.Workers, e.Samples, func(s int) {
		e.hists[s] = e.sampleChip(pca, allocGrids, allocCounts, e.seed+int64(s)*7919+1)
	})
	return e, nil
}

// sampleChip draws one chip and returns its concatenated per-block w
// histograms.
func (e *MonteCarlo) sampleChip(pca *grid.PCA, allocGrids [][]int, allocCounts [][]int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	c := e.chip
	n := c.NumBlocks()
	hist := make([]float32, n*e.WBins)
	shifts := pca.GridShifts(pca.SampleComponents(rng))
	for j := 0; j < n; j++ {
		b := c.Params[j].B
		sigmaW := b * c.Model.SigmaE
		base := hist[j*e.WBins : (j+1)*e.WBins]
		wLo, dw := e.wLo[j], e.dW[j]
		for gi, g := range allocGrids[j] {
			mean := b * (c.Model.NominalAt(g) + shifts[g])
			for i := 0; i < allocCounts[j][gi]; i++ {
				w := mean + sigmaW*rng.NormFloat64()
				bin := int((w - wLo) / dw)
				if bin < 0 {
					bin = 0
				}
				if bin >= e.WBins {
					bin = e.WBins - 1
				}
				base[bin]++
			}
		}
	}
	return hist
}

// expResync is the bin interval at which the geometric progression in
// exponent is resynchronized with an exact math.Exp. The running
// product cur *= r compounds one rounding error per bin; over 512 bins
// that drift reaches ~512 ULP (≳1e-13 relative), while resyncing every
// 64 bins bounds it at ~64 ULP — far below the Monte-Carlo noise floor
// and cheap (8 extra Exp calls per block).
const expResync = 64

// exponent evaluates S(t) = Σ_j Σ_i e^(w_i·L_j) + extra for one
// sample's histograms, where extra carries the (deterministic)
// extrinsic hazard sum.
func (e *MonteCarlo) exponent(hist []float32, ls []float64, extra float64) float64 {
	s := extra
	for j := range ls {
		l := ls[j]
		base := hist[j*e.WBins : (j+1)*e.WBins]
		wLo, dw := e.wLo[j], e.dW[j]
		cur := math.Exp((wLo + dw/2) * l)
		r := math.Exp(dw * l)
		for k, cnt := range base {
			if k%expResync == 0 && k != 0 {
				cur = math.Exp((wLo + (float64(k)+0.5)*dw) * l)
			}
			if cnt != 0 {
				s += float64(cnt) * cur
			}
			cur *= r
		}
	}
	return s
}

// Name implements Engine.
func (e *MonteCarlo) Name() string { return "MC" }

// FailureProb implements Engine: the sample average of
// 1 - exp(-S_k(t)). The reduction over sample histograms fans out over
// e.Workers with the deterministic chunk plan of par.SumOrdered, so
// the result is bit-identical for every worker count.
func (e *MonteCarlo) FailureProb(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	n := e.chip.NumBlocks()
	ls := make([]float64, n)
	ext := 0.0
	for j := 0; j < n; j++ {
		ls[j] = math.Log(t / e.chip.Params[j].Alpha)
		ext += e.chip.extrinsicHazard(j, t)
	}
	acc := par.SumOrdered(e.Workers, len(e.hists), func(s int) float64 {
		return -math.Expm1(-e.exponent(e.hists[s], ls, ext))
	})
	return acc / float64(len(e.hists)), nil
}

// failureTimeObjective is log S(t) − log target over x = log t for one
// sample chip's histograms: the conditional survival exp(−S(t)) equals
// the draw's uniform variate where it crosses zero. Like the lifetime
// objective it is near-linear in x, and an S that underflows to zero
// maps to −Inf. ls is per-worker scratch.
type failureTimeObjective struct {
	e         *MonteCarlo
	hist      []float32
	ls        []float64
	logTarget float64
}

func (o failureTimeObjective) Eval(logT float64) float64 {
	c := o.e.chip
	tt := math.Exp(logT)
	ext := 0.0
	for j := range o.ls {
		o.ls[j] = logT - math.Log(c.Params[j].Alpha)
		ext += c.extrinsicHazard(j, tt)
	}
	s := o.e.exponent(o.hist, o.ls, ext)
	if s <= 0 {
		return math.Inf(-1)
	}
	return math.Log(s) - o.logTarget
}

// SampleFailureTimes draws count chip failure times (the Fig. 10
// lifetime histogram): for each draw a sample chip's conditional
// survival exp(-S(t)) is inverted at a uniform variate by a bracketed
// Brent search on log t (within 1e-9). Draws cycle through the sampled
// chips, so count may exceed the process-sample count; each draw still
// uses fresh breakdown randomness.
func (e *MonteCarlo) SampleFailureTimes(count int, seed int64) ([]float64, error) {
	if count <= 0 {
		return nil, errors.New("core: SampleFailureTimes requires count > 0")
	}
	// The uniform variates are drawn serially up front (preserving the
	// legacy rng consumption order exactly); the per-draw inversions —
	// the expensive part, a dozen-odd exponent evaluations each — are then
	// independent and fan out over e.Workers. Every draw is inverted
	// from its own variate, so the output is bit-identical for every
	// worker count, including the serial path.
	rng := rand.New(rand.NewSource(seed))
	us := make([]float64, count)
	for k := range us {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		us[k] = u
	}
	n := e.chip.NumBlocks()
	aMin, aMax := e.chip.AlphaRange()
	out := make([]float64, count)
	var (
		errMu    sync.Mutex
		firstErr error
	)
	par.ForChunks(e.Workers, count, 16, func(kLo, kHi int) {
		g := failureTimeObjective{e: e, ls: make([]float64, n)}
		for k := kLo; k < kHi; k++ {
			g.hist = e.hists[k%len(e.hists)]
			g.logTarget = math.Log(-math.Log(us[k])) // solve S(t) = −log u
			lo := math.Log(aMin) - 40*math.Ln10
			hi := math.Log(aMax) + 4*math.Ln10
			// S is monotone increasing in t; expand upward if needed.
			fhi := g.Eval(hi)
			for fhi < 0 {
				hi += 2 * math.Ln10
				fhi = g.Eval(hi)
			}
			logT, err := mathx.Brent(g, lo, hi, g.Eval(lo), fhi, 1e-9, 200)
			if err != nil {
				// Record one failure; out is discarded by the caller.
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: failure-time inversion: %w", err)
				}
				errMu.Unlock()
				return
			}
			out[k] = math.Exp(logT)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
