package obdrel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// goldenKeysFile pins every cache key the package derives, per design
// and config: the stage keys name artifacts on disk and at peers, so a
// key that changes its bytes orphans them.
const goldenKeysFile = "testdata/keys.golden.json"

// goldenTrace is the three-segment telemetry trace behind the golden
// trace keys: two solved segments and one measured one.
var goldenTrace = Trace{
	{Hours: 1000, VDD: 1.2, ActivityScale: 1},
	{Hours: 250.5, VDD: 1.1, ActivityScale: 0.6},
	{Hours: 3e3, VDD: 1.25, ActivityScale: 0.8, TempC: 95},
}

// goldenConfigs are the configs of the golden key table, each a
// mutation of DefaultConfig.
func goldenConfigs() map[string]*Config {
	vdd := DefaultConfig()
	vdd.VDD = 1.1
	rho := DefaultConfig()
	rho.RhoDist, rho.GridNx, rho.GridNy = 0.3, 8, 8
	qt := DefaultConfig()
	qt.QuadTree = true
	ext := DefaultConfig()
	ext.Extrinsic = obd.DefaultExtrinsic()
	ext.WaferPattern = &grid.WaferPattern{DieX: 0.3, DieY: -0.2, DieSpan: 0.1, Bowl: 0.05, SlantX: 0.01, SlantY: -0.02}
	return map[string]*Config{
		"default":   DefaultConfig(),
		"vdd=1.1":   vdd,
		"rho=0.3g8": rho,
		"quadtree":  qt,
		"ext+wafer": ext,
	}
}

// derivedKeys returns every key the package derives for (d, cfg): the
// stage keys, the analyzer cache key, the lazy thermal-operator and
// hybrid keys, the design fingerprint, and the keys of goldenTrace.
func derivedKeys(d *Design, cfg *Config) map[string]string {
	ks := StageFingerprints(d, cfg)
	dfp := d.Fingerprint()
	ck := CacheKey(d, cfg)
	ks["cachekey"] = ck
	ks["design"] = dfp
	ks[StageThermalOp] = thermalOpKey(ks[StageFloorplan], cfg)
	ks[StageHybrid] = hybridTableKey(ks[StageChip], cfg)
	ks["trace"] = goldenTrace.Fingerprint()
	ks["trace.cachekey"] = TraceCacheKeyFrom(ck, goldenTrace)
	ks["trace.chip"] = traceChipKey(ks[StageBLOD], dfp, cfg, goldenTrace)
	for i, seg := range goldenTrace {
		ks["trace.thermal."+string(rune('0'+i))] = traceSegThermalKey(ks[StageFloorplan], cfg, seg)
	}
	return ks
}

// goldenKeys derives the golden table: one entry per design and config.
func goldenKeys() map[string]map[string]string {
	out := map[string]map[string]string{}
	for cname, cfg := range goldenConfigs() {
		for _, d := range Benchmarks() {
			out[d.Name+"/"+cname] = derivedKeys(d, cfg)
		}
	}
	return out
}

// TestKeysGolden holds every derived key byte-identical to the golden
// table.
func TestKeysGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenKeysFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenKeys()
	if len(got) != len(want) {
		t.Errorf("%d golden cases, derived %d", len(want), len(got))
	}
	cases := make([]string, 0, len(got))
	for c := range got {
		cases = append(cases, c)
	}
	sort.Strings(cases)
	for _, c := range cases {
		if len(got[c]) != len(want[c]) {
			t.Errorf("%s: %d golden keys, derived %d", c, len(want[c]), len(got[c]))
		}
		for name, key := range got[c] {
			if w := want[c][name]; key != w {
				t.Errorf("%s: %s key = %s, golden %s", c, name, key, w)
			}
		}
	}
}

// The fmt builders below are the reference spelling of every key: the
// form the keys were derived with before the append writer (keyText).
// FuzzKeySegments holds the writer byte-identical to them.

func refFP16(segments ...string) string {
	h := sha256.New()
	for _, s := range segments {
		io.WriteString(h, s)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func refSegPower(c *Config) string {
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

func refSegThermalAt(c *Config, v float64) string {
	ts := c.resolvedThermal()
	return fmt.Sprintf("thermal|%dx%d|solve=op|gv=%g|gl=%g|ta=%g|v=%g",
		ts.Nx, ts.Ny, ts.GVertical, ts.GLateral, ts.TAmbient, v)
}

func refThermalOpKey(floorplanKey string, c *Config) string {
	ts := c.resolvedThermal()
	return refFP16(StageThermalOp, floorplanKey,
		fmt.Sprintf("thermalop|%dx%d|gv=%g|gl=%g", ts.Nx, ts.Ny, ts.GVertical, ts.GLateral))
}

func refSegCovariance(c *Config, dieW, dieH float64) string {
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

func refSegPCA(c *Config, dieW, dieH float64) string {
	tech := c.resolvedTech()
	qtLevels, qtDecay := c.resolvedQuadTree()
	return fmt.Sprintf("pca|layout=blocks|solve=swap|die=%gx%g|u0=%g|sr=%g|fg=%g|fs=%g|rho=%g|grid=%dx%d|qt=%t,%d,%g|keep=%g",
		dieW, dieH, tech.U0, c.SigmaRatio, c.FracGlobal, c.FracSpatial,
		c.RhoDist, c.GridNx, c.GridNy, c.QuadTree, qtLevels, qtDecay, c.resolvedKeep())
}

func refSegWeibull(c *Config) string {
	tech := c.resolvedTech()
	ext := "nil"
	if e := c.Extrinsic; e != nil {
		ext = fmt.Sprintf("%g|%g|%g|%g|%g", e.DefectFraction, e.Alpha0E, e.BetaE, e.EaEV, e.NV)
	}
	return fmt.Sprintf("weib|tech=%g|%g|%g|%g|%g|%g|%g|%g|v=%g|maxT=%t|ext=%s",
		tech.U0, tech.Alpha0, tech.TRefC, tech.VRef, tech.EaEV, tech.NV, tech.B0, tech.CB,
		c.VDD, c.UseBlockMaxTemp, ext)
}

func refSegEngines(c *Config) string {
	nl, nb := c.resolvedHybridGrid()
	return fmt.Sprintf("eng|l0=%d|stmc=%d,%d|mc=%d|hyb=%dx%d|guard=%g|seed=%d",
		c.resolvedL0(), c.StMCSamples, c.StMCBins, c.MCSamples,
		nl, nb, c.GuardSigmas, c.Seed)
}

func refConfigFingerprint(c *Config) string {
	return refFP16(refSegPower(c), refSegThermalAt(c, c.thermalVDD()),
		refSegCovariance(c, 0, 0), refSegPCA(c, 0, 0), refSegWeibull(c), refSegEngines(c))
}

func refDesignFingerprint(d *Design) string {
	h := sha256.New()
	fmt.Fprintf(h, "design|%s|%g|%g|%d\n", d.Name, d.W, d.H, len(d.Blocks))
	for i := range d.Blocks {
		b := &d.Blocks[i]
		fmt.Fprintf(h, "blk|%s|%g|%g|%g|%g|%d|%d|%g\n",
			b.Name, b.X, b.Y, b.W, b.H, b.Devices, int(b.Class), b.Activity)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func refTraceFingerprint(tr Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace|%d", len(tr))
	for _, s := range tr {
		fmt.Fprintf(&b, "|h=%g,v=%g,a=%g,t=%g", s.Hours, s.VDD, s.ActivityScale, s.TempC)
	}
	return refFP16(b.String())
}

func refStageKeys(dfp string, dieW, dieH float64, cfg *Config) map[string]string {
	power, thermal := refSegPower(cfg), refSegThermalAt(cfg, cfg.thermalVDD())
	cov := refSegCovariance(cfg, dieW, dieH)
	ks := map[string]string{
		StageFloorplan:  refFP16(StageFloorplan, dfp),
		StagePowerMap:   refFP16(StagePowerMap, power),
		StageThermal:    refFP16(StageThermal, dfp, power, thermal),
		StageCovariance: refFP16(StageCovariance, cov),
		StagePCA:        refFP16(StagePCA, refSegPCA(cfg, dieW, dieH)),
		StageBLOD:       refFP16(StageBLOD, dfp, cov),
		StageWeibull:    refFP16(StageWeibull, dfp, power, thermal, refSegWeibull(cfg)),
	}
	ks[StageChip] = refFP16(StageChip, ks[StageBLOD], ks[StageWeibull])
	return ks
}

func refHybridTableKey(chipKey string, cfg *Config) string {
	nl, nb := cfg.resolvedHybridGrid()
	return refFP16(StageHybrid, chipKey,
		fmt.Sprintf("nl=%d|nb=%d|l0=%d|fill=mgf|interp=log", nl, nb, cfg.resolvedL0()))
}

func refTraceChipKey(blodKey, dfp string, cfg *Config, tr Trace) string {
	return refFP16(StageChip, blodKey,
		refFP16("trace-weibull", dfp, refSegPower(cfg), refSegWeibull(cfg), refTraceFingerprint(tr)))
}

func refTraceSegThermalKey(floorplanKey string, cfg *Config, seg Segment) string {
	return refFP16(StageThermal, floorplanKey,
		fmt.Sprintf("traceseg|a=%g", seg.ActivityScale),
		refSegPower(cfg), refSegThermalAt(cfg, seg.VDD))
}

// fuzzInput decodes a fuzz input: a pool of eight floats (their
// little-endian IEEE-754 bits, so −0, subnormals, ±Inf and NaN are all
// reachable) and four ints, then one selector byte per value read. A
// float or int field takes the pool entry its byte selects, a flag the
// byte's low bit, a string a length byte and its bytes. The pool keeps
// inputs short, which keeps the fuzzer's minimization quick. An
// exhausted input reads as zeros.
type fuzzInput struct {
	floats [8]float64
	ints   [4]int64
	sel    []byte
}

func newFuzzInput(data []byte) *fuzzInput {
	in := &fuzzInput{}
	var word [8]byte
	for i := 0; i < len(in.floats)+len(in.ints); i++ {
		clear(word[:])
		data = data[copy(word[:], data):]
		u := binary.LittleEndian.Uint64(word[:])
		if i < len(in.floats) {
			in.floats[i] = math.Float64frombits(u)
		} else {
			in.ints[i-len(in.floats)] = int64(u)
		}
	}
	in.sel = data
	return in
}

func (in *fuzzInput) next() byte {
	if len(in.sel) == 0 {
		return 0
	}
	b := in.sel[0]
	in.sel = in.sel[1:]
	return b
}

func (in *fuzzInput) f64() float64    { return in.floats[in.next()%8] }
func (in *fuzzInput) i64() int64      { return in.ints[in.next()%4] }
func (in *fuzzInput) flag() bool      { return in.next()&1 == 1 }
func (in *fuzzInput) count(n int) int { return int(in.next()) % n }

func (in *fuzzInput) str() string {
	n := min(in.count(16), len(in.sel))
	s := string(in.sel[:n])
	in.sel = in.sel[n:]
	return s
}

// config decodes every hashed Config field, each optional sub-struct
// behind a flag.
func (in *fuzzInput) config() *Config {
	c := &Config{
		VDD: in.f64(), SigmaRatio: in.f64(), FracGlobal: in.f64(),
		FracSpatial: in.f64(), FracIndependent: in.f64(), RhoDist: in.f64(),
		GridNx: int(in.i64()), GridNy: int(in.i64()),
		QuadTree: in.flag(), QuadTreeLevels: int(in.i64()), QuadTreeDecay: in.f64(),
	}
	if in.flag() {
		c.WaferPattern = &grid.WaferPattern{DieX: in.f64(), DieY: in.f64(), DieSpan: in.f64(),
			Bowl: in.f64(), SlantX: in.f64(), SlantY: in.f64()}
	}
	c.PCAKeepFraction = in.f64()
	if in.flag() {
		c.Tech = &obd.Tech{U0: in.f64(), Alpha0: in.f64(), TRefC: in.f64(), VRef: in.f64(),
			EaEV: in.f64(), NV: in.f64(), B0: in.f64(), CB: in.f64()}
	}
	if in.flag() {
		c.Extrinsic = &obd.Extrinsic{DefectFraction: in.f64(), Alpha0E: in.f64(),
			BetaE: in.f64(), EaEV: in.f64(), NV: in.f64()}
	}
	if in.flag() {
		c.Power = &power.Model{VNom: in.f64(), LeakDensity0: in.f64(), LeakTCoeff: in.f64(), TRef: in.f64()}
		if n := in.count(24); n > 0 {
			c.Power.DynDensity = map[floorplan.Class]float64{}
			for i := 0; i < n; i++ {
				cl := floorplan.Class(in.i64())
				c.Power.DynDensity[cl] = in.f64()
			}
		}
	}
	if in.flag() {
		c.Thermal = &thermal.Solver{Nx: int(in.i64()), Ny: int(in.i64()),
			GVertical: in.f64(), GLateral: in.f64(), TAmbient: in.f64()}
	}
	c.UseBlockMaxTemp, c.PinThermalVDD = in.flag(), in.f64()
	c.L0, c.StMCSamples, c.StMCBins = int(in.i64()), int(in.i64()), int(in.i64())
	c.MCSamples, c.HybridNL, c.HybridNB = int(in.i64()), int(in.i64()), int(in.i64())
	c.GuardSigmas, c.Seed = in.f64(), in.i64()
	return c
}

// design decodes a design of up to four blocks.
func (in *fuzzInput) design() *Design {
	d := &Design{Name: in.str(), W: in.f64(), H: in.f64()}
	for n := in.count(5); n > 0; n-- {
		d.Blocks = append(d.Blocks, Block{Name: in.str(), X: in.f64(), Y: in.f64(), W: in.f64(), H: in.f64(),
			Devices: int(in.i64()), Class: Class(in.i64()), Activity: in.f64()})
	}
	return d
}

// trace decodes a trace of up to four segments.
func (in *fuzzInput) trace() Trace {
	var tr Trace
	for n := in.count(5); n > 0; n-- {
		tr = append(tr, Segment{Hours: in.f64(), VDD: in.f64(), ActivityScale: in.f64(), TempC: in.f64()})
	}
	return tr
}

// FuzzKeySegments holds every key writer byte-identical to its fmt
// reference over arbitrary float bits, ints, flags and optional
// sub-structs: each config segment, the config, design and trace
// fingerprints, the stage keys and the lazy and trace keys.
func FuzzKeySegments(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := newFuzzInput(data)
		cfg, d, tr := in.config(), in.design(), in.trace()
		v := in.f64()
		segs := []struct {
			name, got, want string
		}{
			{"power", string(cfg.segPower(nil)), refSegPower(cfg)},
			{"thermal", string(cfg.segThermalAt(nil, v)), refSegThermalAt(cfg, v)},
			{"covariance", string(cfg.segCovariance(nil, d.W, d.H)), refSegCovariance(cfg, d.W, d.H)},
			{"pca", string(cfg.segPCA(nil, d.W, d.H)), refSegPCA(cfg, d.W, d.H)},
			{"weibull", string(cfg.segWeibull(nil)), refSegWeibull(cfg)},
			{"engines", string(cfg.segEngines(nil)), refSegEngines(cfg)},
			{"config", cfg.Fingerprint(), refConfigFingerprint(cfg)},
			{"design", d.Fingerprint(), refDesignFingerprint(d)},
			{"trace", tr.Fingerprint(), refTraceFingerprint(tr)},
			{"thermalop", thermalOpKey(d.Name, cfg), refThermalOpKey(d.Name, cfg)},
			{"hybrid", hybridTableKey(d.Name, cfg), refHybridTableKey(d.Name, cfg)},
			{"trace.chip", traceChipKey(d.Name, d.Name, cfg, tr), refTraceChipKey(d.Name, d.Name, cfg, tr)},
		}
		for _, seg := range tr {
			segs = append(segs, struct{ name, got, want string }{"trace.thermal",
				traceSegThermalKey(d.Name, cfg, seg), refTraceSegThermalKey(d.Name, cfg, seg)})
		}
		for _, s := range segs {
			if s.got != s.want {
				t.Errorf("%s: got %q, fmt reference %q", s.name, s.got, s.want)
			}
		}
		dfp := d.Fingerprint()
		got, want := stageKeys(dfp, d.W, d.H, cfg), refStageKeys(dfp, d.W, d.H, cfg)
		for stage, w := range want {
			if got[stage] != w {
				t.Errorf("stage %s: key %s, fmt reference %s", stage, got[stage], w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d stage keys, fmt reference %d", len(got), len(want))
		}
	})
}

// keySink keeps the benchmarked derivations from being optimized away.
var keySink string

// BenchmarkConfigFingerprint measures the registry key's config half,
// derived once per served request and batch item.
func BenchmarkConfigFingerprint(b *testing.B) {
	cfg := DefaultConfig()
	cfg.VDD = 1.15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = cfg.Fingerprint()
	}
}

// BenchmarkStageKeys measures the stage keys of one analyzer build on
// C6, from its design fingerprint.
func BenchmarkStageKeys(b *testing.B) {
	d, cfg := C6(), DefaultConfig()
	dfp := d.Fingerprint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = stageKeys(dfp, d.W, d.H, cfg)[StageChip]
	}
}

// BenchmarkDesignFingerprint measures the design half of every key,
// on the smallest and the largest catalog design.
func BenchmarkDesignFingerprint(b *testing.B) {
	for _, d := range []*Design{C1(), C6()} {
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = d.Fingerprint()
			}
		})
	}
}

// Allocation ceilings of key derivation, measured on the production
// build: the config fingerprint allocates only its result, and C6's
// stage keys their design fingerprint, their eight keys and the map.
// Lower is welcome; a rise means a writer fell back to boxing or a
// buffer outgrew its stack array.
const (
	configFingerprintAllocCeiling = 1
	stageFingerprintsAllocCeiling = 11
)

// TestKeyDerivationAllocs holds Config.Fingerprint and C6's
// StageFingerprints at their allocation ceilings. The race detector's
// instrumentation adds allocations of its own, so the gate only runs
// on the production build.
func TestKeyDerivationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg, d := DefaultConfig(), C6()
	gates := []struct {
		name    string
		ceiling int
		derive  func()
	}{
		{"Config.Fingerprint", configFingerprintAllocCeiling, func() { keySink = cfg.Fingerprint() }},
		{"StageFingerprints(C6)", stageFingerprintsAllocCeiling, func() { keySink = StageFingerprints(d, cfg)[StageChip] }},
	}
	for _, g := range gates {
		allocs := testing.AllocsPerRun(200, g.derive)
		t.Logf("%s: %.0f allocs/op", g.name, allocs)
		if allocs > float64(g.ceiling) {
			t.Errorf("%s allocates %.0f/op, ceiling %d", g.name, allocs, g.ceiling)
		}
	}
}
