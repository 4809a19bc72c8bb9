package obdrel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"obdrel/internal/core"
	"obdrel/internal/floorplan"
	"obdrel/internal/obd"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// This file defines the canonical identities of the analysis: one
// textual segment per stage input, hashed into per-stage fingerprints
// (see stages.go) and composed into the whole-config fingerprint.
// Because Config.Fingerprint is built FROM the stage segments, a new
// knob added to a stage segment automatically reaches the analyzer
// key — the two can not drift apart.
//
// Canonicalization rules shared by every segment:
//
//   - nil Tech/Power/Thermal, a zero PCAKeepFraction and the engines'
//     implicit L0/HybridNL/HybridNB resolve to their defaults before
//     hashing, so an explicit DefaultConfig and a
//     zero-value-with-defaults config collide (as they should);
//   - the performance-only knob Workers is excluded — it selects
//     execution strategy, not the model, and every value is
//     bit-identical by construction.

// fp16 hashes newline-joined canonical segments into the 32-hex-char
// fingerprint format used by every cache key in the system.
func fp16(segments ...string) string {
	h := sha256.New()
	for _, s := range segments {
		io.WriteString(h, s)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ValidFingerprint reports whether s has the canonical fp16 shape —
// exactly 32 lowercase hex characters. The stage fingerprints double
// as wire-level content addresses (artifact file names, the
// /v1/artifact/{stage}/{key} endpoint), so inputs from the network
// and from directory listings are gated through this before use.
func ValidFingerprint(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// resolvedTech returns the configured or default technology.
func (c *Config) resolvedTech() *obd.Tech {
	if c.Tech != nil {
		return c.Tech
	}
	return obd.DefaultTech()
}

// resolvedPower returns the configured or default power model.
func (c *Config) resolvedPower() *power.Model {
	if c.Power != nil {
		return c.Power
	}
	return power.Default()
}

// resolvedThermal returns the configured or default thermal solver.
func (c *Config) resolvedThermal() *thermal.Solver {
	if c.Thermal != nil {
		return c.Thermal
	}
	return thermal.DefaultSolver()
}

// resolvedKeep returns the PCA keep fraction with 0 meaning 1.
func (c *Config) resolvedKeep() float64 {
	if c.PCAKeepFraction == 0 {
		return 1
	}
	return c.PCAKeepFraction
}

// resolvedQuadTree returns the quad-tree parameters with defaults
// applied (3 levels, decay 0.5); zeros when the structure is the
// exponential-decay grid.
func (c *Config) resolvedQuadTree() (levels int, decay float64) {
	if !c.QuadTree {
		return 0, 0
	}
	levels, decay = c.QuadTreeLevels, c.QuadTreeDecay
	if levels == 0 {
		levels = 3
	}
	if decay == 0 {
		decay = 0.5
	}
	return levels, decay
}

// thermalVDD returns the voltage the power/thermal fixed point runs
// at: PinThermalVDD when set, else the operating VDD.
func (c *Config) thermalVDD() float64 {
	if c.PinThermalVDD > 0 {
		return c.PinThermalVDD
	}
	return c.VDD
}

// segPower is the power-map stage input: the resolved power model and
// nothing else. The dynamic-density map iterates in a fixed class
// order so the segment does not depend on Go's map ordering.
func (c *Config) segPower() string {
	pm := c.resolvedPower()
	var b strings.Builder
	fmt.Fprintf(&b, "power|vn=%g|lk=%g,%g,%g|", pm.VNom, pm.LeakDensity0, pm.LeakTCoeff, pm.TRef)
	classes := make([]int, 0, len(pm.DynDensity))
	for cl := range pm.DynDensity {
		classes = append(classes, int(cl))
	}
	sort.Ints(classes)
	for _, cl := range classes {
		fmt.Fprintf(&b, "%d=%g;", cl, pm.DynDensity[floorplan.Class(cl)])
	}
	return b.String()
}

// segThermal is the thermal-solve stage input beyond the power map:
// the resolved solver parameters and the voltage the fixed point runs
// at. The field genuinely moves with VDD (dynamic power ∝ V², leakage
// ∝ V), which is why the thermal stage — unlike covariance/PCA/BLOD —
// is keyed by voltage; PinThermalVDD collapses that key across a
// voltage sweep.
func (c *Config) segThermal() string {
	return c.segThermalAt(c.thermalVDD())
}

// segThermalAt is segThermal evaluated at an explicit voltage — the
// per-segment key for telemetry-trace solves, where each segment's
// measured VDD (not the config's operating point) drives the fixed
// point. The solve tag names the solve path, so artifacts another path
// produced miss by name.
func (c *Config) segThermalAt(v float64) string {
	ts := c.resolvedThermal()
	return fmt.Sprintf("thermal|%dx%d|solve=op|gv=%g|gl=%g|ta=%g|v=%g",
		ts.Nx, ts.Ny, ts.GVertical, ts.GLateral, ts.TAmbient, v)
}

// thermalOpKey is the thermal operator's stage key: the floorplan key
// and the solver's grid and conductances. It leaves out the voltage,
// the power model and TAmbient, which the operator does not depend on,
// so a voltage sweep and a trace's activity-scaled segments share one
// operator.
func thermalOpKey(floorplanKey string, c *Config) string {
	ts := c.resolvedThermal()
	return fp16(StageThermalOp, floorplanKey,
		fmt.Sprintf("thermalop|%dx%d|gv=%g|gl=%g", ts.Nx, ts.Ny, ts.GVertical, ts.GLateral))
}

// segCovariance is the variation-model stage input: die geometry plus
// every knob of Eq. 1's decomposition — nominal thickness, the σ
// budget, the correlation structure, and the wafer-level systematic
// pattern.
func (c *Config) segCovariance(dieW, dieH float64) string {
	tech := c.resolvedTech()
	qtLevels, qtDecay := c.resolvedQuadTree()
	wafer := "nil"
	if p := c.WaferPattern; p != nil {
		wafer = fmt.Sprintf("%g|%g|%g|%g|%g|%g", p.DieX, p.DieY, p.DieSpan, p.Bowl, p.SlantX, p.SlantY)
	}
	return fmt.Sprintf("cov|die=%gx%g|u0=%g|sr=%g|fg=%g|fs=%g|fi=%g|rho=%g|grid=%dx%d|qt=%t,%d,%g|wafer=%s",
		dieW, dieH, tech.U0, c.SigmaRatio, c.FracGlobal, c.FracSpatial, c.FracIndependent,
		c.RhoDist, c.GridNx, c.GridNy, c.QuadTree, qtLevels, qtDecay, wafer)
}

// segPCA is the eigendecomposition stage input. It deliberately
// excludes FracIndependent (σ_ε never enters the correlated-component
// covariance) and the wafer pattern (a deterministic mean shift), so
// sweeps over those share one PCA: this key is what deduplicates
// eigendecompositions across a Table IV/V sweep. The layout tag
// versions the artifact's block form, so disk files and peers holding
// the older dense layout miss instead of failing to decode. The solve
// tag names the swap-symmetric solve of square grids, whose
// eigenvector signs and EO/OE tie order differ from the four-block
// solve's: factors built before it miss by name, so one key never
// serves two sets of sampling-engine answers.
func (c *Config) segPCA(dieW, dieH float64) string {
	tech := c.resolvedTech()
	qtLevels, qtDecay := c.resolvedQuadTree()
	return fmt.Sprintf("pca|layout=blocks|solve=swap|die=%gx%g|u0=%g|sr=%g|fg=%g|fs=%g|rho=%g|grid=%dx%d|qt=%t,%d,%g|keep=%g",
		dieW, dieH, tech.U0, c.SigmaRatio, c.FracGlobal, c.FracSpatial,
		c.RhoDist, c.GridNx, c.GridNy, c.QuadTree, qtLevels, qtDecay, c.resolvedKeep())
}

// segWeibull is the per-block device-parameter stage input beyond the
// thermal field: the full technology (α(T,V)/b(T,V) calibration), the
// operating voltage, the mean-vs-max temperature choice, and the
// extrinsic population.
func (c *Config) segWeibull() string {
	tech := c.resolvedTech()
	ext := "nil"
	if e := c.Extrinsic; e != nil {
		ext = fmt.Sprintf("%g|%g|%g|%g|%g", e.DefectFraction, e.Alpha0E, e.BetaE, e.EaEV, e.NV)
	}
	return fmt.Sprintf("weib|tech=%g|%g|%g|%g|%g|%g|%g|%g|v=%g|maxT=%t|ext=%s",
		tech.U0, tech.Alpha0, tech.TRefC, tech.VRef, tech.EaEV, tech.NV, tech.B0, tech.CB,
		c.VDD, c.UseBlockMaxTemp, ext)
}

// resolvedL0 returns the block-integral order with 0 meaning
// core.DefaultL0, as core.NewStFast and core.NewHybrid resolve it.
func (c *Config) resolvedL0() int {
	if c.L0 <= 0 {
		return core.DefaultL0
	}
	return c.L0
}

// resolvedHybridGrid returns the hybrid table resolution with the
// engine's defaults applied: core.NewHybrid turns any side ≤ 1 into
// 100.
func (c *Config) resolvedHybridGrid() (nl, nb int) {
	nl, nb = c.HybridNL, c.HybridNB
	if nl <= 1 {
		nl = 100
	}
	if nb <= 1 {
		nb = 100
	}
	return nl, nb
}

// segEngines covers the knobs that configure query engines but no
// substrate stage: they shape how questions are answered, not what
// the chip is, so they reach only the whole-analyzer fingerprint.
// The table resolution and integral order are hashed as the engines
// resolve them, so an explicit 100×100 or l0=32 names the same
// analyzer as the omitted default.
func (c *Config) segEngines() string {
	nl, nb := c.resolvedHybridGrid()
	return fmt.Sprintf("eng|l0=%d|stmc=%d,%d|mc=%d|hyb=%dx%d|guard=%g|seed=%d",
		c.resolvedL0(), c.StMCSamples, c.StMCBins, c.MCSamples,
		nl, nb, c.GuardSigmas, c.Seed)
}

// Fingerprint returns a stable, canonical identity for the
// configuration: a hex digest over every model parameter that affects
// analysis results, composed from the per-stage canonical segments
// (die geometry, the only design-derived stage input, is contributed
// by the Design half of CacheKey). Configurations that resolve to the
// same analyzer behaviour share a fingerprint.
//
// The fingerprint is the cache key half used by serving-layer
// analyzer registries (see internal/server); CacheKey combines it
// with a Design fingerprint, and StageFingerprints exposes the
// per-stage keys underneath it.
func (c *Config) Fingerprint() string {
	return fp16(
		c.segPower(),
		c.segThermal(),
		c.segCovariance(0, 0),
		c.segPCA(0, 0),
		c.segWeibull(),
		c.segEngines(),
	)
}

// Fingerprint returns a stable identity for the design: a hex digest
// of its name, die geometry, and every block's rectangle, device
// count, class, and activity. Two designs with the same name but
// different contents get different fingerprints.
func (d *Design) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "design|%s|%g|%g|%d\n", d.Name, d.W, d.H, len(d.Blocks))
	for i := range d.Blocks {
		b := &d.Blocks[i]
		fmt.Fprintf(h, "blk|%s|%g|%g|%g|%g|%d|%d|%g\n",
			b.Name, b.X, b.Y, b.W, b.H, b.Devices, int(b.Class), b.Activity)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// CacheKey returns the canonical cache identity of a (design, config)
// pair — the key under which serving layers memoize Analyzers. A nil
// config selects DefaultConfig, matching NewAnalyzer.
func CacheKey(d *Design, cfg *Config) string {
	return CacheKeyFromFingerprint(d.Fingerprint(), cfg)
}

// CacheKeyFromFingerprint is CacheKey for a caller that already holds
// the design's Fingerprint: a server over a fixed catalog hashes each
// design once instead of on every lookup.
func CacheKeyFromFingerprint(designFP string, cfg *Config) string {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	return designFP + ":" + cfg.Fingerprint()
}

// Fingerprint returns a stable, canonical identity for a telemetry
// trace: the segment count, segment order, and every field of every
// segment. Damage accumulation is a weighted sum over segments, so
// order would not change the result for identical segment sets — but
// two traces with reordered segments are still different telemetry,
// and collapsing them would hide that from caches and audits; the
// fingerprint therefore keeps order significant.
func (tr Trace) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace|%d", len(tr))
	for _, s := range tr {
		fmt.Fprintf(&b, "|h=%g,v=%g,a=%g,t=%g", s.Hours, s.VDD, s.ActivityScale, s.TempC)
	}
	return fp16(b.String())
}

// TraceCacheKeyFrom returns the canonical cache identity of a
// telemetry replay: the (design, config) CacheKey extended with the
// trace fingerprint. Serving layers memoize trace analyzers under it;
// the batch planner uses it as the grouping key for trace query items.
func TraceCacheKeyFrom(cacheKey string, tr Trace) string {
	return cacheKey + ":" + tr.Fingerprint()
}
