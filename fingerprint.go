package obdrel

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"

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
// Every key is written by one append writer, keyText, into a stack
// buffer and hashed with one sha256.Sum256. Its number writers append
// exactly the bytes of fmt's %g, %d and %t, so every segment reads as
// its fmt.Sprintf spelling did: the keys that name artifacts on disk
// and at peers do not move (testdata/keys.golden.json pins them, and
// FuzzKeySegments holds the writer to the fmt spelling). stageKeys
// writes each segment once and hashes it into every stage key that
// depends on it.
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

// keyText is canonical key text under construction. Each writer
// returns the extended text, so segments read as one chain of appends.
type keyText []byte

// str appends s as %s does.
func (k keyText) str(s string) keyText { return append(k, s...) }

// g appends x as %g does: strconv's shortest 'g' form, with fmt's
// spelling of ±Inf, NaN and −0.
func (k keyText) g(x float64) keyText { return strconv.AppendFloat(k, x, 'g', -1, 64) }

// d appends x as %d does.
func (k keyText) d(x int64) keyText { return strconv.AppendInt(k, x, 10) }

// t appends x as %t does.
func (k keyText) t(x bool) keyText { return strconv.AppendBool(k, x) }

// line appends s as one newline-terminated fp16 segment.
func (k keyText) line(s string) keyText { return append(append(k, s...), '\n') }

// lines appends segments that are already newline-terminated.
func (k keyText) lines(b keyText) keyText { return append(k, b...) }

// end terminates the segment under construction.
func (k keyText) end() keyText { return append(k, '\n') }

// sum is the fp16 digest of newline-terminated segments: the first
// 16 bytes of their SHA-256, in lowercase hex.
func (k keyText) sum() string {
	h := sha256.Sum256(k)
	var out [32]byte
	hex.Encode(out[:], h[:16])
	return string(out[:])
}

// fp16 hashes newline-joined canonical segments into the 32-hex-char
// fingerprint format used by every cache key in the system.
func fp16(segments ...string) string {
	var buf [256]byte
	k := keyText(buf[:0])
	for _, s := range segments {
		k = k.line(s)
	}
	return k.sum()
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

// segPower appends the power-map stage input: the resolved power
// model and nothing else.
func (c *Config) segPower(k keyText) keyText {
	if c.Power == nil {
		return k.str(defaultPowerText)
	}
	return powerText(k, c.Power)
}

// powerText appends the power-map segment of pm. The dynamic-density
// map iterates in a fixed class order so the segment does not depend
// on Go's map ordering.
func powerText(k keyText, pm *power.Model) keyText {
	k = k.str("power|vn=").g(pm.VNom).str("|lk=").g(pm.LeakDensity0).
		str(",").g(pm.LeakTCoeff).str(",").g(pm.TRef).str("|")
	var buf [16]int
	classes := buf[:0]
	for cl := range pm.DynDensity {
		classes = append(classes, int(cl))
	}
	slices.Sort(classes)
	for _, cl := range classes {
		k = k.d(int64(cl)).str("=").g(pm.DynDensity[floorplan.Class(cl)]).str(";")
	}
	return k
}

// techText appends the technology's α(T,V)/b(T,V) calibration, as the
// weibull segment spells it.
func techText(k keyText, tech *obd.Tech) keyText {
	return k.g(tech.U0).str("|").g(tech.Alpha0).str("|").g(tech.TRefC).
		str("|").g(tech.VRef).str("|").g(tech.EaEV).str("|").g(tech.NV).
		str("|").g(tech.B0).str("|").g(tech.CB)
}

// A nil Power or Tech resolves to a constant default, so its text is
// written once: configs that leave them nil, as served requests do,
// skip building the default power model's map and sorting it.
var (
	defaultPowerText = string(powerText(nil, power.Default()))
	defaultTechText  = string(techText(nil, obd.DefaultTech()))
)

// segThermal appends the thermal-solve stage input beyond the power
// map: the resolved solver parameters and the voltage the fixed point
// runs at. The field genuinely moves with VDD (dynamic power ∝ V²,
// leakage ∝ V), which is why the thermal stage — unlike
// covariance/PCA/BLOD — is keyed by voltage; PinThermalVDD collapses
// that key across a voltage sweep.
func (c *Config) segThermal(k keyText) keyText {
	return c.segThermalAt(k, c.thermalVDD())
}

// segThermalAt is segThermal evaluated at an explicit voltage — the
// per-segment key for telemetry-trace solves, where each segment's
// measured VDD (not the config's operating point) drives the fixed
// point. The solve tag names the solve path, so artifacts another path
// produced miss by name.
func (c *Config) segThermalAt(k keyText, v float64) keyText {
	ts := c.resolvedThermal()
	return k.str("thermal|").d(int64(ts.Nx)).str("x").d(int64(ts.Ny)).
		str("|solve=op|gv=").g(ts.GVertical).str("|gl=").g(ts.GLateral).
		str("|ta=").g(ts.TAmbient).str("|v=").g(v)
}

// thermalOpKey is the thermal operator's stage key: the floorplan key
// and the solver's grid and conductances. It leaves out the voltage,
// the power model and TAmbient, which the operator does not depend on,
// so a voltage sweep and a trace's activity-scaled segments share one
// operator.
func thermalOpKey(floorplanKey string, c *Config) string {
	ts := c.resolvedThermal()
	var buf [128]byte
	return keyText(buf[:0]).line(StageThermalOp).line(floorplanKey).
		str("thermalop|").d(int64(ts.Nx)).str("x").d(int64(ts.Ny)).
		str("|gv=").g(ts.GVertical).str("|gl=").g(ts.GLateral).end().sum()
}

// segCovariance appends the variation-model stage input: die geometry
// plus every knob of Eq. 1's decomposition — nominal thickness, the σ
// budget, the correlation structure, and the wafer-level systematic
// pattern.
func (c *Config) segCovariance(k keyText, dieW, dieH float64) keyText {
	tech := c.resolvedTech()
	qtLevels, qtDecay := c.resolvedQuadTree()
	k = k.str("cov|die=").g(dieW).str("x").g(dieH).str("|u0=").g(tech.U0).
		str("|sr=").g(c.SigmaRatio).str("|fg=").g(c.FracGlobal).
		str("|fs=").g(c.FracSpatial).str("|fi=").g(c.FracIndependent).
		str("|rho=").g(c.RhoDist).str("|grid=").d(int64(c.GridNx)).str("x").d(int64(c.GridNy)).
		str("|qt=").t(c.QuadTree).str(",").d(int64(qtLevels)).str(",").g(qtDecay).
		str("|wafer=")
	p := c.WaferPattern
	if p == nil {
		return k.str("nil")
	}
	return k.g(p.DieX).str("|").g(p.DieY).str("|").g(p.DieSpan).str("|").
		g(p.Bowl).str("|").g(p.SlantX).str("|").g(p.SlantY)
}

// segPCA appends the eigendecomposition stage input. It deliberately
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
func (c *Config) segPCA(k keyText, dieW, dieH float64) keyText {
	tech := c.resolvedTech()
	qtLevels, qtDecay := c.resolvedQuadTree()
	return k.str("pca|layout=blocks|solve=swap|die=").g(dieW).str("x").g(dieH).
		str("|u0=").g(tech.U0).str("|sr=").g(c.SigmaRatio).
		str("|fg=").g(c.FracGlobal).str("|fs=").g(c.FracSpatial).
		str("|rho=").g(c.RhoDist).str("|grid=").d(int64(c.GridNx)).str("x").d(int64(c.GridNy)).
		str("|qt=").t(c.QuadTree).str(",").d(int64(qtLevels)).str(",").g(qtDecay).
		str("|keep=").g(c.resolvedKeep())
}

// segWeibull appends the per-block device-parameter stage input beyond
// the thermal field: the full technology (α(T,V)/b(T,V) calibration),
// the operating voltage, the mean-vs-max temperature choice, and the
// extrinsic population.
func (c *Config) segWeibull(k keyText) keyText {
	k = k.str("weib|tech=")
	if c.Tech == nil {
		k = k.str(defaultTechText)
	} else {
		k = techText(k, c.Tech)
	}
	k = k.str("|v=").g(c.VDD).str("|maxT=").t(c.UseBlockMaxTemp).str("|ext=")
	e := c.Extrinsic
	if e == nil {
		return k.str("nil")
	}
	return k.g(e.DefectFraction).str("|").g(e.Alpha0E).str("|").g(e.BetaE).
		str("|").g(e.EaEV).str("|").g(e.NV)
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

// segEngines appends the knobs that configure query engines but no
// substrate stage: they shape how questions are answered, not what
// the chip is, so they reach only the whole-analyzer fingerprint.
// The table resolution and integral order are hashed as the engines
// resolve them, so an explicit 100×100 or l0=32 names the same
// analyzer as the omitted default.
func (c *Config) segEngines(k keyText) keyText {
	nl, nb := c.resolvedHybridGrid()
	return k.str("eng|l0=").d(int64(c.resolvedL0())).
		str("|stmc=").d(int64(c.StMCSamples)).str(",").d(int64(c.StMCBins)).
		str("|mc=").d(int64(c.MCSamples)).str("|hyb=").d(int64(nl)).str("x").d(int64(nb)).
		str("|guard=").g(c.GuardSigmas).str("|seed=").d(c.Seed)
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
	var buf [1024]byte
	k := c.segPower(buf[:0]).end()
	k = c.segThermal(k).end()
	k = c.segCovariance(k, 0, 0).end()
	k = c.segPCA(k, 0, 0).end()
	k = c.segWeibull(k).end()
	return c.segEngines(k).end().sum()
}

// Fingerprint returns a stable identity for the design: a hex digest
// of its name, die geometry, and every block's rectangle, device
// count, class, and activity. Two designs with the same name but
// different contents get different fingerprints.
func (d *Design) Fingerprint() string {
	var buf [4096]byte
	k := keyText(buf[:0]).str("design|").str(d.Name).str("|").g(d.W).str("|").g(d.H).
		str("|").d(int64(len(d.Blocks))).end()
	for i := range d.Blocks {
		b := &d.Blocks[i]
		k = k.str("blk|").str(b.Name).str("|").g(b.X).str("|").g(b.Y).
			str("|").g(b.W).str("|").g(b.H).str("|").d(int64(b.Devices)).
			str("|").d(int64(b.Class)).str("|").g(b.Activity).end()
	}
	return k.sum()
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
	var buf [512]byte
	k := keyText(buf[:0]).str("trace|").d(int64(len(tr)))
	for _, s := range tr {
		k = k.str("|h=").g(s.Hours).str(",v=").g(s.VDD).
			str(",a=").g(s.ActivityScale).str(",t=").g(s.TempC)
	}
	return k.end().sum()
}

// TraceCacheKeyFrom returns the canonical cache identity of a
// telemetry replay: the (design, config) CacheKey extended with the
// trace fingerprint. Serving layers memoize trace analyzers under it;
// the batch planner uses it as the grouping key for trace query items.
func TraceCacheKeyFrom(cacheKey string, tr Trace) string {
	return cacheKey + ":" + tr.Fingerprint()
}
