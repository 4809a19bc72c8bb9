// Package obdrel is a process-variation and temperature-aware
// full-chip gate-oxide-breakdown (OBD) reliability analyzer — a Go
// reproduction of Zhuo, Chopra, Sylvester and Blaauw, "Process
// Variation and Temperature-Aware Full Chip Oxide Breakdown
// Reliability Analysis" (IEEE TCAD 2011; DATE 2010).
//
// The analyzer models every device's oxide thickness as a random
// variable with inter-die, spatially correlated intra-die, and
// independent components, derives each functional block's
// thickness-population statistics (the BLOD — block-level oxide
// distribution), couples them with temperature-dependent Weibull
// breakdown parameters from a built-in power/thermal simulation, and
// computes the chip-ensemble reliability function R(t) and
// n-per-million lifetimes with five interchangeable methods:
//
//   - MethodStFast — the paper's proposed statistical analysis
//     (marginal-PDF double integrals; Eq. 28), device-count
//     independent and accurate to ~1% of Monte Carlo.
//   - MethodStMC — same projection, but the per-block joint
//     (mean, variance) PDF is built numerically from samples.
//   - MethodHybrid — table-lookup acceleration (Section IV-E),
//     another 2+ orders of magnitude faster per query.
//   - MethodGuard — the traditional guard-band bound (worst
//     temperature, minimum thickness), ~50% pessimistic.
//   - MethodMC — the device-level Monte-Carlo reference.
//
// A temperature-unaware variant (MethodTempUnaware) reproduces the
// Fig. 10 comparison.
//
// # Quick start
//
//	an, err := obdrel.NewAnalyzer(obdrel.C6(), obdrel.DefaultConfig())
//	if err != nil { ... }
//	life, err := an.LifetimePPM(10, obdrel.MethodStFast) // 10-per-million lifetime, hours
//
// All times are in hours, temperatures in °C, thicknesses in nm, and
// chip geometry in a normalized unit where the benchmark dies are
// 1×1.
//
// # Observability
//
// Every context-aware entry point (NewAnalyzerCtx, MaxVDDFromCtx, the
// stage cache) is instrumented with internal/obs spans: when the
// caller's context carries an active trace, stage lookups record
// hit/miss/coalesced provenance and build durations, the thermal
// fixed point reports its round count and final change, and MaxVDD searches
// report every bisection probe. When the context is untraced — the
// default for library use — the instrumentation is a nil check with
// zero allocations, so batch callers pay nothing. The serving layer
// (internal/server, cmd/obdreld) opens the traces and surfaces them
// via /debug/traces and the ?explain=1 query flag.
//
// # Robustness
//
// The same entry points carry internal/fault injection points
// (pipeline.build, thermal.solve, maxvdd.probe) and a typed failure
// taxonomy: build errors surface wrapped with stage + fingerprint
// provenance and classified Permanent, Transient or Cancelled. Every
// stage build is a pure function of its key, so a real failure is
// Permanent and the stage cache neither retries nor caches it; only an
// injected error rule is Transient. With nothing armed, every injection point is a single atomic load and zero
// allocations, so the fault framework is free in production. See
// DESIGN.md §11 and TestChaosOverHTTP in internal/server.
package obdrel

import (
	"errors"
	"fmt"
	"math"

	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// Class categorizes a functional block for the power model.
type Class int

// Block classes.
const (
	Cache Class = iota
	RegFile
	Control
	ALU
	FPU
	Queue
)

// String implements fmt.Stringer.
func (c Class) String() string { return c.internal().String() }

func (c Class) internal() floorplan.Class {
	switch c {
	case Cache:
		return floorplan.ClassCache
	case RegFile:
		return floorplan.ClassRegFile
	case Control:
		return floorplan.ClassControl
	case ALU:
		return floorplan.ClassALU
	case FPU:
		return floorplan.ClassFPU
	case Queue:
		return floorplan.ClassQueue
	}
	return floorplan.ClassControl
}

func fromInternalClass(c floorplan.Class) Class {
	switch c {
	case floorplan.ClassCache:
		return Cache
	case floorplan.ClassRegFile:
		return RegFile
	case floorplan.ClassControl:
		return Control
	case floorplan.ClassALU:
		return ALU
	case floorplan.ClassFPU:
		return FPU
	case floorplan.ClassQueue:
		return Queue
	}
	return Control
}

// Block is one rectangular functional block: the temperature-uniform
// unit of the analysis. Devices counts gate oxides; Activity in
// [0, 1] drives the power model.
type Block struct {
	Name       string
	X, Y, W, H float64
	Devices    int
	Class      Class
	Activity   float64
}

// Design is a full chip floorplan.
type Design struct {
	Name   string
	W, H   float64
	Blocks []Block
}

// TotalDevices returns the design's device count.
func (d *Design) TotalDevices() int {
	n := 0
	for i := range d.Blocks {
		n += d.Blocks[i].Devices
	}
	return n
}

// errNilDesign is returned for a nil *Design — checked before the
// stage graph touches the design's fingerprint.
var errNilDesign = errors.New("obdrel: nil design")

func (d *Design) internal() (*floorplan.Design, error) {
	if d == nil {
		return nil, errNilDesign
	}
	fd := &floorplan.Design{Name: d.Name, W: d.W, H: d.H}
	for _, b := range d.Blocks {
		fd.Blocks = append(fd.Blocks, floorplan.Block{
			Name: b.Name, X: b.X, Y: b.Y, W: b.W, H: b.H,
			Devices: b.Devices, Class: b.Class.internal(), Activity: b.Activity,
		})
	}
	if err := fd.Validate(); err != nil {
		return nil, err
	}
	return fd, nil
}

func fromInternalDesign(fd *floorplan.Design) *Design {
	d := &Design{Name: fd.Name, W: fd.W, H: fd.H}
	for _, b := range fd.Blocks {
		d.Blocks = append(d.Blocks, Block{
			Name: b.Name, X: b.X, Y: b.Y, W: b.W, H: b.H,
			Devices: b.Devices, Class: fromInternalClass(b.Class), Activity: b.Activity,
		})
	}
	return d
}

// The six benchmark designs of the paper's evaluation (Table III) and
// the many-core design of Fig. 1(b).

// C1 returns the 50K-device synthetic benchmark.
func C1() *Design { return fromInternalDesign(floorplan.C1()) }

// C2 returns the 80K-device synthetic benchmark.
func C2() *Design { return fromInternalDesign(floorplan.C2()) }

// C3 returns the 0.1M-device synthetic benchmark.
func C3() *Design { return fromInternalDesign(floorplan.C3()) }

// C4 returns the 0.2M-device synthetic benchmark.
func C4() *Design { return fromInternalDesign(floorplan.C4()) }

// C5 returns the 0.5M-device synthetic benchmark.
func C5() *Design { return fromInternalDesign(floorplan.C5()) }

// C6 returns the EV6/alpha-like 0.84M-device processor benchmark with
// 15 functional modules.
func C6() *Design { return fromInternalDesign(floorplan.C6()) }

// Benchmarks returns all six designs in evaluation order.
func Benchmarks() []*Design {
	return []*Design{C1(), C2(), C3(), C4(), C5(), C6()}
}

// ManyCore returns a cores×cores tiled design in the style of the
// Fig. 1(b) thermal profile.
func ManyCore(cores, devicesPerTile int) (*Design, error) {
	fd, err := floorplan.ManyCore(cores, devicesPerTile)
	if err != nil {
		return nil, err
	}
	return fromInternalDesign(fd), nil
}

// Config gathers every model parameter. DefaultConfig reproduces the
// paper's Table II setup.
type Config struct {
	// VDD is the supply voltage (V).
	VDD float64
	// SigmaRatio is the total thickness variation as 3σ/u0
	// (Table II: 4%).
	SigmaRatio float64
	// FracGlobal, FracSpatial, FracIndependent split the total
	// variance between inter-die, spatially correlated, and
	// independent components (Table II: 50/25/25).
	FracGlobal, FracSpatial, FracIndependent float64
	// RhoDist is the correlation distance as a fraction of the chip
	// dimension (Section V: 0.5).
	RhoDist float64
	// GridNx, GridNy set the spatial-correlation grid (Section V:
	// 25×25).
	GridNx, GridNy int
	// QuadTree selects the quad-tree correlation structure of [24]
	// instead of the exponential-decay grid model; QuadTreeLevels and
	// QuadTreeDecay configure it (0 selects 3 levels, decay 0.5).
	QuadTree       bool
	QuadTreeLevels int
	QuadTreeDecay  float64
	// WaferPattern optionally adds the deterministic across-wafer
	// systematic thickness component of [21]–[23].
	WaferPattern *grid.WaferPattern
	// PCAKeepFraction truncates principal components at this captured
	// variance (1 keeps everything).
	PCAKeepFraction float64
	// Tech is the device OBD technology; nil selects the calibrated
	// default (2.2 nm, β ≈ 1.32).
	Tech *obd.Tech
	// Extrinsic optionally adds a defect-driven early-failure
	// population (bimodal TDDB, cf. the product-level analysis of
	// [4]); nil analyzes the intrinsic wear-out population only. Use
	// obd.DefaultExtrinsic() for the calibrated defaults.
	Extrinsic *obd.Extrinsic
	// Power and Thermal configure the Wattch-like power model and the
	// HotSpot-like solver; nil selects the calibrated defaults.
	Power   *power.Model
	Thermal *thermal.Solver
	// UseBlockMaxTemp selects the block-level worst-case temperature
	// (the paper's choice) rather than the block mean.
	UseBlockMaxTemp bool
	// PinThermalVDD, when positive, solves the power/thermal fixed
	// point at this reference voltage instead of VDD, while the device
	// Weibull parameters α(T,V)/b(T,V) still use VDD. This is the
	// dynamic-reliability-management approximation of a temperature
	// profile fixed by the cooling design: it makes the thermal stage's
	// fingerprint voltage-independent, so a MaxVDD bisection performs
	// exactly one thermal solve across all probes. Zero (the default)
	// keeps the physical coupling — the field genuinely moves with VDD
	// through dynamic power ∝ V² and leakage ∝ V.
	PinThermalVDD float64
	// L0 is the st_fast integration resolution (0 → library default;
	// the paper uses 10).
	L0 int
	// StMCSamples and StMCBins configure the st_MC engine.
	StMCSamples, StMCBins int
	// MCSamples configures the device-level reference (Section V:
	// 1000).
	MCSamples int
	// HybridNL, HybridNB set the lookup-table resolution (Section
	// IV-E: 100×100).
	HybridNL, HybridNB int
	// GuardSigmas is the guard-band thickness margin in total sigmas
	// (x_min = u0 - GuardSigmas·σ_tot).
	GuardSigmas float64
	// Seed makes every stochastic stage reproducible.
	Seed int64
	// Workers bounds the parallelism of every engine and substrate
	// stage (MC sampling and queries, st_MC projection, hybrid-table
	// fill, PCA) and of construction, which resolves the PCA and BLOD
	// stages side by side. 0 uses GOMAXPROCS; 1 runs without
	// goroutines.
	// Every value produces bit-identical results: each reduction has
	// one fixed plan that depends on the problem size, never on the
	// worker count.
	Workers int
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() *Config {
	return &Config{
		VDD:             1.2,
		SigmaRatio:      0.04,
		FracGlobal:      0.50,
		FracSpatial:     0.25,
		FracIndependent: 0.25,
		RhoDist:         0.5,
		GridNx:          25,
		GridNy:          25,
		PCAKeepFraction: 1.0,
		UseBlockMaxTemp: true,
		StMCSamples:     5000,
		StMCBins:        40,
		MCSamples:       1000,
		GuardSigmas:     3,
		Seed:            1,
	}
}

// Validate checks the configuration. Every numeric knob is checked
// for finiteness and range so that garbage input — in particular
// untrusted values arriving over the obdreld HTTP API — fails here
// with a descriptive error instead of NaN-poisoning the analysis.
func (c *Config) Validate() error {
	switch {
	case c == nil:
		return errors.New("obdrel: nil config")
	case !(c.VDD > 0) || math.IsInf(c.VDD, 0):
		return fmt.Errorf("obdrel: VDD must be positive and finite, got %v", c.VDD)
	case !(c.SigmaRatio > 0) || c.SigmaRatio >= 1:
		return fmt.Errorf("obdrel: SigmaRatio must be in (0,1), got %v", c.SigmaRatio)
	case !(c.FracGlobal >= 0) || !(c.FracSpatial >= 0) || !(c.FracIndependent >= 0) ||
		math.IsInf(c.FracGlobal, 0) || math.IsInf(c.FracSpatial, 0) || math.IsInf(c.FracIndependent, 0):
		return fmt.Errorf("obdrel: variance fractions must be non-negative and finite, got %v/%v/%v",
			c.FracGlobal, c.FracSpatial, c.FracIndependent)
	case c.GridNx <= 0 || c.GridNy <= 0:
		return fmt.Errorf("obdrel: correlation grid must be positive, got %d×%d", c.GridNx, c.GridNy)
	case !(c.RhoDist > 0) || math.IsInf(c.RhoDist, 0):
		return fmt.Errorf("obdrel: RhoDist must be positive and finite, got %v", c.RhoDist)
	case c.QuadTreeLevels < 0:
		return fmt.Errorf("obdrel: QuadTreeLevels must be non-negative, got %d", c.QuadTreeLevels)
	case c.QuadTreeDecay < 0 || math.IsInf(c.QuadTreeDecay, 0) || math.IsNaN(c.QuadTreeDecay):
		return fmt.Errorf("obdrel: QuadTreeDecay must be non-negative and finite, got %v", c.QuadTreeDecay)
	case c.PCAKeepFraction < 0 || c.PCAKeepFraction > 1 || math.IsNaN(c.PCAKeepFraction):
		return fmt.Errorf("obdrel: PCAKeepFraction must be in [0,1], got %v", c.PCAKeepFraction)
	case c.L0 < 0:
		return fmt.Errorf("obdrel: L0 must be non-negative, got %d", c.L0)
	case c.StMCSamples < 0 || c.StMCBins < 0:
		return fmt.Errorf("obdrel: st_MC sampling must be non-negative, got %d samples × %d bins",
			c.StMCSamples, c.StMCBins)
	case c.MCSamples < 0:
		return fmt.Errorf("obdrel: MCSamples must be non-negative, got %d", c.MCSamples)
	case c.HybridNL < 0 || c.HybridNB < 0:
		return fmt.Errorf("obdrel: hybrid table resolution must be non-negative, got %d×%d",
			c.HybridNL, c.HybridNB)
	case !(c.GuardSigmas >= 0) || math.IsInf(c.GuardSigmas, 0):
		return fmt.Errorf("obdrel: GuardSigmas must be non-negative and finite, got %v", c.GuardSigmas)
	case c.Workers < 0:
		return fmt.Errorf("obdrel: Workers must be non-negative, got %v", c.Workers)
	case c.PinThermalVDD < 0 || math.IsInf(c.PinThermalVDD, 0) || math.IsNaN(c.PinThermalVDD):
		return fmt.Errorf("obdrel: PinThermalVDD must be non-negative and finite, got %v", c.PinThermalVDD)
	}
	return nil
}

// variationModel builds the grid model from the config for a design's
// die.
func (c *Config) variationModel(dieW, dieH float64) (*grid.Model, error) {
	tech := c.Tech
	if tech == nil {
		tech = obd.DefaultTech()
	}
	sigmaTot := tech.U0 * c.SigmaRatio / 3
	sg, ss, se, err := grid.VarianceBudget(sigmaTot, c.FracGlobal, c.FracSpatial, c.FracIndependent)
	if err != nil {
		return nil, err
	}
	m, err := grid.NewModel(tech.U0, dieW, dieH, c.GridNx, c.GridNy, sg, ss, se, c.RhoDist)
	if err != nil {
		return nil, err
	}
	if c.QuadTree {
		m.Structure = grid.StructQuadTree
		m.QTLevels = c.QuadTreeLevels
		m.QTDecay = c.QuadTreeDecay
	}
	m.Pattern = c.WaferPattern
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
