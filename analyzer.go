package obdrel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"obdrel/internal/core"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/stats"
	"obdrel/internal/thermal"
)

// Method selects a reliability analysis engine.
type Method int

// The analysis methods compared in the paper's evaluation.
const (
	// MethodStFast is the proposed statistical analysis (Section
	// IV-D).
	MethodStFast Method = iota
	// MethodStMC constructs the per-block joint PDF numerically.
	MethodStMC
	// MethodHybrid is the analytical/table-lookup engine (Section
	// IV-E).
	MethodHybrid
	// MethodGuard is the traditional guard-band bound.
	MethodGuard
	// MethodMC is the device-level Monte-Carlo reference.
	MethodMC
	// MethodTempUnaware is MethodStFast with the worst-case
	// temperature applied to every block (the Fig. 10 comparison).
	MethodTempUnaware
	numMethods
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodStFast:
		return "st_fast"
	case MethodStMC:
		return "st_MC"
	case MethodHybrid:
		return "hybrid"
	case MethodGuard:
		return "guard"
	case MethodMC:
		return "MC"
	case MethodTempUnaware:
		return "temp_unaware"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Methods returns all methods in the paper's comparison order.
func Methods() []Method {
	return []Method{MethodStFast, MethodStMC, MethodHybrid, MethodGuard, MethodMC, MethodTempUnaware}
}

// BlockInfo reports one block's operating point as resolved by the
// power/thermal stage.
type BlockInfo struct {
	Name string
	// MeanTempC and MaxTempC are the block's average and worst-case
	// temperatures (°C); PowerW its converged power (W).
	MeanTempC, MaxTempC, PowerW float64
	// Alpha and B are the device-level Weibull parameters used for
	// the block (α in hours, b in 1/nm).
	Alpha, B float64
	// Devices is the block's device count.
	Devices int
}

// Analyzer is a fully characterized chip ready for reliability
// queries. It is a thin facade over the stage graph (see stages.go):
// construction resolves the floorplan, power-map, thermal,
// covariance/PCA, BLOD, Weibull-parameter and chip stages — each
// served from the process-wide stage cache when a prior construction
// already built the identical artifact; engines are then built lazily
// per method and cached per analyzer.
type Analyzer struct {
	cfg    *Config
	design *floorplan.Design
	model  *grid.Model
	// pca resolves the PCA through the stage cache (a hit, or a
	// deterministic rebuild if it was evicted). The analyzer holds no
	// PCA itself, so the cache's byte budget alone bounds PCA memory
	// however many analyzers a registry keeps; only the sampling
	// engines call it, once each, when they are built.
	pca func(context.Context) (*grid.PCA, error)
	// hybrid resolves the hybrid engine's tables through the same
	// cache, under StageHybrid; only the hybrid engine calls it.
	hybrid func(context.Context) (*hybridTables, error)
	chip   *core.Chip
	tech   *obd.Tech

	blockInfo []BlockInfo
	field     *thermal.Field

	mu      sync.Mutex
	engines map[Method]core.Engine
}

// NewAnalyzer characterizes a design under a configuration. A nil
// config selects DefaultConfig.
func NewAnalyzer(d *Design, cfg *Config) (*Analyzer, error) {
	return NewAnalyzerCtx(context.Background(), d, cfg)
}

// NewAnalyzerCtx is NewAnalyzer with cancellation support: ctx is
// checked at stage-cache lookups and inside every stage build (thermal
// fixed-point rounds, covariance rows, eigensolver loops, per-block
// characterization), so a cancelled context stops the substrate
// computation promptly instead of abandoning it.
//
// Stage artifacts are served from the process-wide stage cache;
// NewAnalyzerCtxIn takes another, or none. Artifacts are immutable and
// their builds deterministic and independent of Workers (a perf knob,
// excluded from stage fingerprints), so cache reuse never changes
// results.
func NewAnalyzerCtx(ctx context.Context, d *Design, cfg *Config) (*Analyzer, error) {
	return NewAnalyzerCtxIn(ctx, sharedStages, d, cfg)
}

// engine returns (building on first use) the engine for a method.
// Construction is serialized so an Analyzer is safe for concurrent
// queries; engines themselves are safe for concurrent use.
func (a *Analyzer) engine(m Method) (core.Engine, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.engines[m]; ok {
		return e, nil
	}
	var (
		e   core.Engine
		err error
	)
	switch m {
	case MethodStFast:
		e, err = core.NewStFast(a.chip, a.cfg.L0)
	case MethodStMC:
		var pca *grid.PCA
		if pca, err = a.pca(context.Background()); err == nil {
			e, err = core.NewStMC(a.chip, pca, core.StMCOptions{
				Samples: a.cfg.StMCSamples, Bins: a.cfg.StMCBins, Seed: a.cfg.Seed,
				Workers: a.cfg.Workers,
			})
		}
	case MethodHybrid:
		var tabs *hybridTables
		if tabs, err = a.hybrid(context.Background()); err == nil {
			e, err = core.NewHybridFromTables(a.chip, tabs.ls, tabs.bs, tabs.blocks)
		}
	case MethodGuard:
		e, err = core.NewGuardBand(a.chip, a.cfg.GuardSigmas)
	case MethodMC:
		var pca *grid.PCA
		if pca, err = a.pca(context.Background()); err == nil {
			e, err = core.NewMonteCarlo(a.chip, pca, core.MCOptions{
				Samples: a.cfg.MCSamples, Seed: a.cfg.Seed,
				Workers: a.cfg.Workers,
			})
		}
	case MethodTempUnaware:
		var uni *core.Chip
		uni, err = a.chip.WithUniformParams(a.chip.WorstParams())
		if err == nil {
			e, err = core.NewStFast(uni, a.cfg.L0)
		}
	default:
		return nil, fmt.Errorf("obdrel: unknown method %v", m)
	}
	if err != nil {
		return nil, err
	}
	a.engines[m] = e
	return e, nil
}

// EngineReady reports whether the engine for m has already been
// built. The serving layer uses it to pick the warm query path: a
// built st_fast/hybrid engine answers in microseconds without
// allocating, so wrapping the call in a cancellation goroutine would
// cost more than the query itself.
func (a *Analyzer) EngineReady(m Method) bool {
	a.mu.Lock()
	_, ok := a.engines[m]
	a.mu.Unlock()
	return ok
}

// Prepare builds (if absent) the engine for m without running a
// query, so subsequent LifetimeAt/FailureProb calls for the method
// take the warm zero-alloc path. The batch planner calls it once per
// item group before fanning the group's queries across workers.
func (a *Analyzer) Prepare(m Method) error {
	_, err := a.engine(m)
	return err
}

// validTime rejects non-finite query times before they reach an
// engine — a NaN time silently propagates through every integral.
func validTime(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("obdrel: query time must be finite, got %v", t)
	}
	return nil
}

// validPPM rejects ppm criteria outside (0, 1e6): n per million only
// names a reachable failure probability n/1e6 in (0, 1).
func validPPM(n float64) error {
	if !(n > 0) || n >= 1e6 || math.IsNaN(n) {
		return fmt.Errorf("obdrel: ppm criterion must be in (0, 1e6), got %v", n)
	}
	return nil
}

// FailureProb returns P_fail(t) = 1 - R(t) at time t (hours).
func (a *Analyzer) FailureProb(t float64, m Method) (float64, error) {
	if err := validTime(t); err != nil {
		return 0, err
	}
	e, err := a.engine(m)
	if err != nil {
		return 0, err
	}
	return e.FailureProb(t)
}

// LifetimePPM returns the n-faults-per-million-parts lifetime in
// hours — the time at which n out of a million chips have failed
// (Section V's evaluation criterion).
func (a *Analyzer) LifetimePPM(n float64, m Method) (float64, error) {
	if err := validPPM(n); err != nil {
		return 0, err
	}
	e, err := a.engine(m)
	if err != nil {
		return 0, err
	}
	return core.LifetimePPM(e, a.chip, n)
}

// tolerant returns (building on first use) the K-breakdown wrapper
// over the Monte-Carlo engine.
func (a *Analyzer) tolerant(k int) (core.Engine, error) {
	base, err := a.engine(MethodMC)
	if err != nil {
		return nil, err
	}
	return core.NewTolerant(base, k)
}

// LifetimePPMTolerant returns the n-per-million lifetime under a
// k-breakdown failure criterion.
func (a *Analyzer) LifetimePPMTolerant(n float64, k int) (float64, error) {
	if err := validPPM(n); err != nil {
		return 0, err
	}
	e, err := a.tolerant(k)
	if err != nil {
		return 0, err
	}
	return core.LifetimePPM(e, a.chip, n)
}

// SampleFailureTimes draws chip failure times from the device-level
// Monte-Carlo model — the Fig. 10 lifetime histogram.
func (a *Analyzer) SampleFailureTimes(count int) ([]float64, error) {
	e, err := a.engine(MethodMC)
	if err != nil {
		return nil, err
	}
	return e.(*core.MonteCarlo).SampleFailureTimes(count, a.cfg.Seed+101)
}

// BlockContribution is one block's share of the chip failure
// probability at a queried time.
type BlockContribution struct {
	Name string
	// FailureProb is the block's ensemble failure probability D_j(t);
	// Share is its fraction of the chip total.
	FailureProb, Share float64
}

// FailureContributions decomposes the chip failure probability at
// time t into per-block contributions (using the st_fast engine's
// union form), sorted by the design's block order. The block with the
// largest share is the chip's reliability limiter — typically the
// hotspot, but a large cool cache can win on sheer area.
func (a *Analyzer) FailureContributions(t float64) ([]BlockContribution, error) {
	if err := validTime(t); err != nil {
		return nil, err
	}
	e, err := a.engine(MethodStFast)
	if err != nil {
		return nil, err
	}
	fast := e.(*core.StFast)
	out := make([]BlockContribution, len(a.blockInfo))
	total := 0.0
	for j := range out {
		d, err := fast.BlockFailureProb(j, t)
		if err != nil {
			return nil, err
		}
		out[j] = BlockContribution{Name: a.blockInfo[j].Name, FailureProb: d}
		total += d
	}
	if total > 0 {
		for j := range out {
			out[j].Share = out[j].FailureProb / total
		}
	}
	return out, nil
}

// BurnInResult reports a burn-in screen: the fallout fraction, the
// per-block equivalent field hours consumed, and an engine answering
// post-screen field reliability queries.
type BurnInResult struct {
	// Fallout is the fraction of the population failing during the
	// screen (removed before shipment).
	Fallout float64
	// IntrinsicEqHours and ExtrinsicEqHours are the per-block
	// equivalent field hours of wear consumed by the screen.
	IntrinsicEqHours, ExtrinsicEqHours []float64

	engine *core.BurnIn
	chip   *core.Chip
}

// LifetimePPM returns the shipped population's n-per-million field
// lifetime.
func (r *BurnInResult) LifetimePPM(n float64) (float64, error) {
	return core.LifetimePPM(r.engine, r.chip, n)
}

// BurnIn simulates screening the population for `hours` at an
// elevated condition (stressV volts, stressTC °C, uniform across the
// die in the burn-in oven) and returns the post-screen field
// reliability model. Stress exposure converts to per-block equivalent
// field hours through the characteristic-life ratios — separately for
// the intrinsic and (if configured) extrinsic populations, whose
// acceleration differs.
//
// Burn-in is only beneficial when Config.Extrinsic adds an
// infant-mortality population; for a purely intrinsic (wear-out)
// chip the screen just consumes life, and the result will honestly
// show a shorter field lifetime.
func (a *Analyzer) BurnIn(stressV, stressTC, hours float64) (*BurnInResult, error) {
	if !(hours >= 0) {
		return nil, fmt.Errorf("obdrel: negative burn-in duration %v", hours)
	}
	stress, err := a.tech.Characterize(stressTC, stressV)
	if err != nil {
		return nil, err
	}
	n := len(a.blockInfo)
	intShift := make([]float64, n)
	for j := 0; j < n; j++ {
		intShift[j] = hours * a.chip.Params[j].Alpha / stress.Alpha
	}
	var extShift []float64
	if a.cfg.Extrinsic != nil {
		stressExt, err := a.tech.CharacterizeExtrinsic(a.cfg.Extrinsic, stressTC, stressV)
		if err != nil {
			return nil, err
		}
		extShift = make([]float64, n)
		for j := 0; j < n; j++ {
			extShift[j] = hours * a.chip.Extrinsic[j].AlphaE / stressExt.AlphaE
		}
	}
	base, err := a.engine(MethodStFast)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewBurnIn(base.(*core.StFast), intShift, extShift)
	if err != nil {
		return nil, err
	}
	return &BurnInResult{
		Fallout:          eng.Fallout,
		IntrinsicEqHours: intShift,
		ExtrinsicEqHours: extShift,
		engine:           eng,
		chip:             a.chip,
	}, nil
}

// FitWeibull estimates the two-parameter Weibull distribution best
// describing a sample of failure times (median-rank regression),
// returning the characteristic life (same unit as the input), the
// shape β, and the probability-plot R². Chip-level weakest-link
// failures are themselves near-Weibull, so fitting the times from
// SampleFailureTimes recovers an effective chip-level (α, β).
func FitWeibull(times []float64) (scale, shape, r2 float64, err error) {
	w, r2, err := stats.FitWeibull(times)
	if err != nil {
		return 0, 0, 0, err
	}
	return w.Scale, w.Shape, r2, nil
}

// Blocks reports every block's operating point and reliability
// parameters.
func (a *Analyzer) Blocks() []BlockInfo {
	return append([]BlockInfo(nil), a.blockInfo...)
}

// TemperatureField returns the solved die temperature map: cell
// temperatures in °C, row-major on an nx×ny grid.
func (a *Analyzer) TemperatureField() (nx, ny int, temps []float64) {
	return a.field.Nx, a.field.Ny, append([]float64(nil), a.field.Temps...)
}

// TempSpread returns the min, mean and max die temperature (°C).
func (a *Analyzer) TempSpread() (min, mean, max float64) {
	min, max = a.field.MinMax()
	return min, a.field.Mean(), max
}

// Comparison is one row of a method-comparison table.
type Comparison struct {
	Method Method
	// LifetimeH is the lifetime estimate (hours) at the requested ppm
	// criterion; ErrVsMCPct its signed error against the MC
	// reference.
	LifetimeH  float64
	ErrVsMCPct float64
}

// CompareMethods evaluates the given methods at an n-per-million
// criterion and reports each lifetime and its error against
// MethodMC, which is added to the set if absent (Table III).
func (a *Analyzer) CompareMethods(ppm float64, methods []Method) ([]Comparison, error) {
	if len(methods) == 0 {
		return nil, errors.New("obdrel: no methods given")
	}
	ref, err := a.LifetimePPM(ppm, MethodMC)
	if err != nil {
		return nil, err
	}
	var out []Comparison
	for _, m := range methods {
		life, err := a.LifetimePPM(ppm, m)
		if err != nil {
			return nil, fmt.Errorf("obdrel: method %v: %w", m, err)
		}
		out = append(out, Comparison{
			Method:     m,
			LifetimeH:  life,
			ErrVsMCPct: (life - ref) / ref * 100,
		})
	}
	return out, nil
}

// ReliabilityCurve samples P_fail at count log-spaced times between
// tLo and tHi (hours), for plotting failure-rate curves (Fig. 10).
func (a *Analyzer) ReliabilityCurve(tLo, tHi float64, count int, m Method) (times, pFail []float64, err error) {
	if !(tLo > 0) || !(tHi > tLo) || count < 2 {
		return nil, nil, fmt.Errorf("obdrel: invalid curve request [%v, %v] × %d", tLo, tHi, count)
	}
	e, err := a.engine(m)
	if err != nil {
		return nil, nil, err
	}
	step := math.Log(tHi/tLo) / float64(count-1)
	for i := 0; i < count; i++ {
		t := tLo * math.Exp(float64(i)*step)
		p, err := e.FailureProb(t)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		pFail = append(pFail, p)
	}
	return times, pFail, nil
}
