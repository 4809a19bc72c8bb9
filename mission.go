package obdrel

import (
	"context"
	"errors"
	"fmt"
	"math"

	"obdrel/internal/blod"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/pipeline"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// Mode is one operating mode of a mission profile: a supply voltage,
// an activity scaling applied to every block, and the fraction of
// operating time spent in the mode.
type Mode struct {
	Name string
	// VDD is the mode's supply voltage (V).
	VDD float64
	// ActivityScale multiplies each block's switching activity
	// (results clamp to [0, 1]); 1 is the design's nominal workload.
	ActivityScale float64
	// Fraction is the share of operating time, in (0, 1]; the modes'
	// fractions must sum to 1.
	Fraction float64
}

// NewMissionAnalyzer characterizes a design under a duty-cycled
// mission profile instead of a single worst-case operating point. A
// mission is a trace whose segment hours are the modes' fractions:
// each mode becomes the solved Segment{Hours: Fraction, VDD,
// ActivityScale}, and the trace path (see NewTraceAnalyzerCtx)
// combines the per-mode characteristic lives by linear damage
// accumulation (Miner's rule):
//
//	1/α_eff,j = Σ_m fraction_m / α_{j,m}
//
// so a block ages at each mode's rate for that mode's share of time.
// The per-block slope b is damage-weighted across modes (its spread
// over realistic mode temperatures is a few percent, so the
// approximation is mild; the dominant mode dominates the weight). The
// same combination applies to the extrinsic population when
// configured. Every stage, including each mode's thermal solve and
// the hybrid tables, resolves through the process-wide stage cache.
//
// The returned Analyzer answers all the usual queries; reported block
// temperatures are the fraction-weighted means with the max taken
// across modes, and the stored temperature field belongs to the
// highest-power mode.
func NewMissionAnalyzer(d *Design, cfg *Config, modes []Mode) (*Analyzer, error) {
	if err := validateModes(modes); err != nil {
		return nil, err
	}
	tr := make(Trace, len(modes))
	for i, m := range modes {
		tr[i] = Segment{Hours: m.Fraction, VDD: m.VDD, ActivityScale: m.ActivityScale}
	}
	return NewTraceAnalyzerCtx(context.Background(), d, cfg, tr)
}

// Segment is one piecewise interval of a measured telemetry trace:
// the wall-clock duration spent there, the supply voltage, the
// activity scaling (for intervals whose temperature must be solved),
// and an optional measured die temperature.
type Segment struct {
	// Hours is the interval duration; segments are weighted by their
	// share of the trace's total hours.
	Hours float64 `json:"hours"`
	// VDD is the measured supply voltage (V) over the interval.
	VDD float64 `json:"vdd"`
	// ActivityScale multiplies each block's switching activity when
	// the segment's temperature is solved (results clamp to [0, 1]);
	// ignored when TempC is set. Zero means idle, 1 nominal workload.
	ActivityScale float64 `json:"activity_scale"`
	// TempC, when non-zero, is the measured die temperature (°C)
	// applied uniformly to every block — the on-die-sensor reading a
	// fleet telemetry pipeline reports. Zero selects a coupled
	// power/thermal solve at (VDD, ActivityScale) instead; a genuinely
	// measured 0 °C should be nudged by an epsilon.
	TempC float64 `json:"temp_c,omitempty"`
}

// Trace is a piecewise temperature/voltage history — the fleet
// telemetry generalization of a mission profile. Where Mode carries
// time *fractions* at design-time operating points, Trace carries
// measured wall-clock segments; damage accumulates by Miner's rule
// over the segments' hour shares. NewMissionAnalyzer is this path with
// the fractions as hours.
type Trace []Segment

// TotalHours returns the trace's total duration.
func (tr Trace) TotalHours() float64 {
	sum := 0.0
	for _, s := range tr {
		sum += s.Hours
	}
	return sum
}

// Validate checks the trace: at least one segment; every segment with
// finite positive hours, finite positive VDD, finite non-negative
// activity scale, and a finite measured temperature within the
// plausible silicon range when set.
func (tr Trace) Validate() error {
	if len(tr) == 0 {
		return errors.New("obdrel: trace needs at least one segment")
	}
	for i, s := range tr {
		switch {
		case !(s.Hours > 0) || math.IsInf(s.Hours, 0):
			return fmt.Errorf("obdrel: trace segment %d hours %v not finite positive", i, s.Hours)
		case !(s.VDD > 0) || math.IsInf(s.VDD, 0):
			return fmt.Errorf("obdrel: trace segment %d VDD %v not finite positive", i, s.VDD)
		case s.ActivityScale < 0 || math.IsNaN(s.ActivityScale) || math.IsInf(s.ActivityScale, 0):
			return fmt.Errorf("obdrel: trace segment %d activity scale %v not finite non-negative", i, s.ActivityScale)
		case math.IsNaN(s.TempC) || math.IsInf(s.TempC, 0):
			return fmt.Errorf("obdrel: trace segment %d temperature %v not finite", i, s.TempC)
		case s.TempC != 0 && (s.TempC < -100 || s.TempC > 250):
			return fmt.Errorf("obdrel: trace segment %d measured temperature %v °C outside [-100, 250]", i, s.TempC)
		}
	}
	if tot := tr.TotalHours(); math.IsInf(tot, 0) {
		return fmt.Errorf("obdrel: trace total hours %v not finite", tot)
	}
	return nil
}

// NewTraceAnalyzerCtx replays a per-unit telemetry trace through the
// reliability model: each segment contributes damage at its own
// (temperature, voltage) operating point for its share of the trace's
// hours, combined by Miner's rule:
//
//	1/α_eff,j = Σ_s (hours_s / Σhours) / α_{j,s}
//
// Measured segments (TempC set) skip the thermal solve — the sensor
// already answered it; solved segments run the coupled power/thermal
// fixed point at the segment's VDD and activity. Voltage-independent
// substrate stages (floorplan, covariance, PCA, BLOD) and each
// distinct (VDD, activity) thermal solve resolve through the shared
// stage cache, so replaying a fleet of traces over one design builds
// the substrate once. NewTraceAnalyzerCtxIn takes another cache.
//
// The returned Analyzer answers all the usual queries; reported block
// temperatures are hour-weighted means with the max across segments,
// and the stored temperature field belongs to the highest-power
// solved segment (a uniform 1×1 field at the hottest measured
// temperature when every segment is measured).
func NewTraceAnalyzerCtx(ctx context.Context, d *Design, cfg *Config, tr Trace) (*Analyzer, error) {
	return NewTraceAnalyzerCtxIn(ctx, sharedStages, d, cfg, tr)
}

// NewTraceAnalyzerCtxIn is NewTraceAnalyzerCtx against an explicit
// stage cache, as NewAnalyzerCtxIn is for NewAnalyzerCtx. The trace's
// chip itself is not a cached stage: its Weibull parameters are
// specific to the trace, so no other analyzer or peer would ask for
// it.
func NewTraceAnalyzerCtxIn(ctx context.Context, cache *pipeline.Cache, d *Design, cfg *Config, tr Trace) (*Analyzer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	g, err := newStageGraph(ctx, cache, d, cfg)
	if err != nil {
		return nil, err
	}
	defer g.endPulls()
	var (
		w     *weibullArtifact
		field *thermal.Field
		pca   *grid.PCA
		char  *blod.Characterization
	)
	// The trace's Weibull parameters resolve beside the PCA, as the
	// chip does in NewAnalyzerCtxIn; BLOD is on the list because the
	// trace's chip is assembled here rather than pulled from the cache.
	traceWeibull := resolution{run: func(ctx context.Context) (err error) {
		w, field, err = g.traceWeibull(ctx, tr)
		return err
	}}
	if err := g.resolve(ctx, traceWeibull, into(g, StagePCA, &pca, g.pca),
		into(g, StageBLOD, &char, g.blod)); err != nil {
		return nil, err
	}
	chip, err := assembleChip(g.fd, char.Model, char, w)
	if err != nil {
		return nil, err
	}
	// The trace-specific Weibull parameters make the chip identity
	// trace-dependent; composing the trace fingerprint in keeps the
	// hybrid tables (keyed by chipKey) distinct per trace.
	chipKey := traceChipKey(g.keys[StageBLOD], g.dfp, g.cfg, tr)
	return g.analyzer(chip, chipKey, w.info, field), nil
}

// traceChipKey names a trace analyzer's chip: the BLOD stage key and a
// digest of the design, the power and Weibull segments and the trace.
func traceChipKey(blodKey, dfp string, cfg *Config, tr Trace) string {
	var buf [1024]byte
	k := keyText(buf[:0]).line("trace-weibull").line(dfp)
	k = cfg.segPower(k).end()
	k = cfg.segWeibull(k).end()
	return fp16(StageChip, blodKey, k.line(tr.Fingerprint()).sum())
}

// traceWeibull is the trace path's weibull stage: it resolves each
// segment's operating point, from the sensor or the solver, and
// combines the per-segment device Weibull parameters by Miner's rule.
// It also returns the field the analyzer reports.
func (g *stageGraph) traceWeibull(ctx context.Context, tr Trace) (*weibullArtifact, *thermal.Field, error) {
	cfg, fd := g.cfg, g.fd
	n := len(fd.Blocks)
	info := make([]BlockInfo, n)
	for i := range info {
		info[i] = BlockInfo{
			Name:     fd.Blocks[i].Name,
			Devices:  fd.Blocks[i].Devices,
			MaxTempC: math.Inf(-1),
		}
	}
	damage := make([]float64, n)
	bWeighted := make([]float64, n)
	extDamage := make([]float64, n)
	total := tr.TotalHours()
	var (
		bestField   *thermal.Field
		bestPower   float64
		maxMeasured = math.Inf(-1)
	)
	for si, seg := range tr {
		frac := seg.Hours / total
		// blockMean/blockMax/blockPower describe the segment's
		// resolved operating point, from the sensor or the solver.
		var blockMean, blockMax, blockPower []float64
		if seg.TempC != 0 {
			if seg.TempC > maxMeasured {
				maxMeasured = seg.TempC
			}
		} else {
			coupled, err := g.traceSegThermal(ctx, seg)
			if err != nil {
				return nil, nil, fmt.Errorf("obdrel: trace segment %d thermal analysis: %w", si, err)
			}
			if tot := power.Total(coupled.Powers); tot > bestPower || bestField == nil {
				bestPower = tot
				bestField = coupled.Field
			}
			blockMean, blockMax, blockPower = coupled.BlockMean, coupled.BlockMax, coupled.Powers
		}
		for j := 0; j < n; j++ {
			tMean, tMax, pW := seg.TempC, seg.TempC, 0.0
			if blockMean != nil {
				tMean, tMax, pW = blockMean[j], blockMax[j], blockPower[j]
			}
			tBlock := tMean
			if cfg.UseBlockMaxTemp {
				tBlock = tMax
			}
			p, err := g.tech.Characterize(tBlock, seg.VDD)
			if err != nil {
				return nil, nil, fmt.Errorf("obdrel: trace segment %d block %q: %w", si, fd.Blocks[j].Name, err)
			}
			w := frac / p.Alpha
			damage[j] += w
			bWeighted[j] += w * p.B
			info[j].MeanTempC += frac * tMean
			info[j].PowerW += frac * pW
			if tMax > info[j].MaxTempC {
				info[j].MaxTempC = tMax
			}
			if cfg.Extrinsic != nil {
				pe, err := g.tech.CharacterizeExtrinsic(cfg.Extrinsic, tBlock, seg.VDD)
				if err != nil {
					return nil, nil, fmt.Errorf("obdrel: trace segment %d block %q extrinsic: %w", si, fd.Blocks[j].Name, err)
				}
				extDamage[j] += frac / pe.AlphaE
			}
		}
	}
	if bestField == nil {
		// Every segment came with a sensor reading: there is no solved
		// field to store, so report a uniform die at the hottest
		// measured temperature.
		bestField = &thermal.Field{Nx: 1, Ny: 1, W: fd.W, H: fd.H, Temps: []float64{maxMeasured}}
	}

	w := &weibullArtifact{params: make([]obd.Params, n), info: info}
	for j := 0; j < n; j++ {
		w.params[j] = obd.Params{
			Alpha: 1 / damage[j],
			B:     bWeighted[j] / damage[j],
		}
		info[j].Alpha = w.params[j].Alpha
		info[j].B = w.params[j].B
	}
	if cfg.Extrinsic != nil {
		w.ext = make([]obd.ExtrinsicParams, n)
		for j := 0; j < n; j++ {
			w.ext[j] = obd.ExtrinsicParams{
				AlphaE:         1 / extDamage[j],
				BetaE:          cfg.Extrinsic.BetaE,
				DefectFraction: cfg.Extrinsic.DefectFraction,
			}
		}
	}
	return w, bestField, nil
}

// traceSegThermal resolves a solved trace segment's coupled
// power/thermal fixed point through the stage cache: the key is the
// thermal-stage identity evaluated at the segment's (VDD, activity),
// so repeating segments — across a trace or across a fleet of traces
// on one design — solve once.
func (g *stageGraph) traceSegThermal(ctx context.Context, seg Segment) (*thermal.CoupledResult, error) {
	return stageGet(ctx, g, StageThermal, traceSegThermalKey(g.keys[StageFloorplan], g.cfg, seg),
		func(bctx context.Context) (*thermal.CoupledResult, error) {
			// Activity scaling leaves the geometry alone, so every
			// segment shares the design's operator.
			op, err := g.thermalOp(bctx)
			if err != nil {
				return nil, err
			}
			scaled := *g.fd
			scaled.Blocks = append([]floorplan.Block(nil), g.fd.Blocks...)
			for i := range scaled.Blocks {
				a := scaled.Blocks[i].Activity * seg.ActivityScale
				if a > 1 {
					a = 1
				}
				scaled.Blocks[i].Activity = a
			}
			return g.ts.SolveCoupledCtx(bctx, op, &scaled, func(temps []float64) ([]float64, error) {
				return g.powerMap.DesignPowers(&scaled, seg.VDD, temps)
			}, 0, 0)
		})
}

// traceSegThermalKey is the thermal-stage key of a solved trace
// segment: the floorplan key, the segment's activity scale, and the
// power and thermal segments at the segment's VDD.
func traceSegThermalKey(floorplanKey string, cfg *Config, seg Segment) string {
	var buf [512]byte
	k := keyText(buf[:0]).line(StageThermal).line(floorplanKey).
		str("traceseg|a=").g(seg.ActivityScale).end()
	k = cfg.segPower(k).end()
	return cfg.segThermalAt(k, seg.VDD).end().sum()
}

func validateModes(modes []Mode) error {
	if len(modes) == 0 {
		return errors.New("obdrel: mission profile needs at least one mode")
	}
	sum := 0.0
	for _, m := range modes {
		switch {
		case !(m.VDD > 0) || math.IsInf(m.VDD, 0):
			return fmt.Errorf("obdrel: mode %q VDD %v not finite positive", m.Name, m.VDD)
		case !(m.ActivityScale >= 0) || math.IsInf(m.ActivityScale, 0):
			return fmt.Errorf("obdrel: mode %q activity scale %v not finite non-negative", m.Name, m.ActivityScale)
		case !(m.Fraction > 0) || m.Fraction > 1:
			return fmt.Errorf("obdrel: mode %q fraction %v outside (0,1]", m.Name, m.Fraction)
		}
		sum += m.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("obdrel: mode fractions sum to %v, want 1", sum)
	}
	return nil
}
