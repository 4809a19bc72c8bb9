package obdrel_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"obdrel"
	"obdrel/internal/thermal"
)

// TestFingerprintCanonicalization checks that the serving cache key
// identifies configurations by resolved behaviour, not representation.
func TestFingerprintCanonicalization(t *testing.T) {
	base := obdrel.DefaultConfig()

	t.Run("deterministic", func(t *testing.T) {
		if base.Fingerprint() != obdrel.DefaultConfig().Fingerprint() {
			t.Fatal("identical configs produced different fingerprints")
		}
	})
	t.Run("perf knobs excluded", func(t *testing.T) {
		cfg := obdrel.DefaultConfig()
		cfg.Workers = 7
		if cfg.Fingerprint() != base.Fingerprint() {
			t.Fatal("Workers changed the fingerprint")
		}
	})
	t.Run("defaults resolved", func(t *testing.T) {
		cfg := obdrel.DefaultConfig()
		cfg.PCAKeepFraction = 0 // resolves to 1
		if cfg.Fingerprint() != base.Fingerprint() {
			t.Fatal("zero PCAKeepFraction should collide with the explicit default 1")
		}
	})
	t.Run("engine defaults resolved", func(t *testing.T) {
		// The engines build the same 100×100 tables and l0 = 32
		// integrals whether these knobs are omitted or spelled out, so
		// the whole-config key must not split on the spelling.
		cases := map[string]func(*obdrel.Config){
			"hybrid 100x100": func(c *obdrel.Config) { c.HybridNL, c.HybridNB = 100, 100 },
			"hybrid nl only": func(c *obdrel.Config) { c.HybridNL = 100 },
			"hybrid 1x1":     func(c *obdrel.Config) { c.HybridNL, c.HybridNB = 1, 1 },
			"l0 default":     func(c *obdrel.Config) { c.L0 = 32 },
		}
		for name, mutate := range cases {
			cfg := obdrel.DefaultConfig()
			mutate(cfg)
			if cfg.Fingerprint() != base.Fingerprint() {
				t.Errorf("%s: explicit engine default split the fingerprint", name)
			}
		}
	})
	t.Run("model knobs included", func(t *testing.T) {
		distinct := map[string]string{"base": base.Fingerprint()}
		mutations := map[string]func(*obdrel.Config){
			"hybridNL": func(c *obdrel.Config) { c.HybridNL = 50 },
			"hybridNB": func(c *obdrel.Config) { c.HybridNB = 50 },
			"l0":       func(c *obdrel.Config) { c.L0 = 16 },
			"vdd":      func(c *obdrel.Config) { c.VDD = 1.1 },
			"grid":     func(c *obdrel.Config) { c.GridNx = 16 },
			"seed":     func(c *obdrel.Config) { c.Seed = 2 },
			"rho":      func(c *obdrel.Config) { c.RhoDist = 0.3 },
			"maxT":     func(c *obdrel.Config) { c.UseBlockMaxTemp = false },
			"mc":       func(c *obdrel.Config) { c.MCSamples = 77 },
			"quadT":    func(c *obdrel.Config) { c.QuadTree = true },
			"solver": func(c *obdrel.Config) {
				s := thermal.DefaultSolver()
				s.GLateral = 0.2
				c.Thermal = s
			},
		}
		for name, mutate := range mutations {
			cfg := obdrel.DefaultConfig()
			mutate(cfg)
			fp := cfg.Fingerprint()
			if prev, ok := distinct[name]; ok && prev == fp {
				t.Fatalf("mutation %q did not change the fingerprint", name)
			}
			for other, otherFP := range distinct {
				if otherFP == fp {
					t.Fatalf("mutations %q and %q collided", name, other)
				}
			}
			distinct[name] = fp
		}
	})
	t.Run("pca solve tag", func(t *testing.T) {
		// The pca stage key names its solve, so factors of the
		// four-block solve of square grids, whose eigenvector signs
		// differ, miss by name.
		if seg := base.PCASegment(); !strings.Contains(seg, "|layout=blocks|solve=swap|") {
			t.Fatalf("pca stage key input %q lacks the layout=blocks|solve=swap tag", seg)
		}
	})
	t.Run("thermal method defaults resolved", func(t *testing.T) {
		// The thermal stage key names its solve method, so artifacts of
		// another solver miss by name; an explicit default solver
		// resolves to the same key as none.
		if seg := base.ThermalSegment(); !strings.Contains(seg, "|solve=op|") {
			t.Fatalf("thermal stage key input %q lacks the solve=op tag", seg)
		}
		cfg := obdrel.DefaultConfig()
		cfg.Thermal = thermal.DefaultSolver()
		if cfg.Fingerprint() != base.Fingerprint() {
			t.Fatal("explicit default solver should collide with the nil default")
		}
	})
	t.Run("quadtree defaults resolved", func(t *testing.T) {
		a := obdrel.DefaultConfig()
		a.QuadTree = true
		b := obdrel.DefaultConfig()
		b.QuadTree = true
		b.QuadTreeLevels, b.QuadTreeDecay = 3, 0.5 // the documented defaults
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatal("implicit and explicit quad-tree defaults should collide")
		}
	})
}

func TestDesignFingerprint(t *testing.T) {
	if obdrel.C1().Fingerprint() != obdrel.C1().Fingerprint() {
		t.Fatal("design fingerprint not deterministic")
	}
	if obdrel.C1().Fingerprint() == obdrel.C2().Fingerprint() {
		t.Fatal("distinct designs collided")
	}
	tweaked := obdrel.C1()
	tweaked.Blocks[0].Devices++
	if tweaked.Fingerprint() == obdrel.C1().Fingerprint() {
		t.Fatal("same-name designs with different contents collided")
	}
}

func TestCacheKey(t *testing.T) {
	k := obdrel.CacheKey(obdrel.C1(), nil)
	if k != obdrel.CacheKey(obdrel.C1(), obdrel.DefaultConfig()) {
		t.Fatal("nil config must key like DefaultConfig (NewAnalyzer semantics)")
	}
	if k == obdrel.CacheKey(obdrel.C2(), nil) {
		t.Fatal("designs not separated in cache key")
	}
	if k != obdrel.CacheKeyFromFingerprint(obdrel.C1().Fingerprint(), nil) {
		t.Fatal("CacheKeyFromFingerprint disagrees with CacheKey")
	}
}

// TestConfigValidateRejectsGarbage pins the untrusted-input hardening:
// non-finite or out-of-range knobs must fail Validate with a
// descriptive error, never reach the engines as NaN.
func TestConfigValidateRejectsGarbage(t *testing.T) {
	cases := map[string]func(*obdrel.Config){
		"nan vdd":           func(c *obdrel.Config) { c.VDD = math.NaN() },
		"inf vdd":           func(c *obdrel.Config) { c.VDD = math.Inf(1) },
		"zero vdd":          func(c *obdrel.Config) { c.VDD = 0 },
		"negative vdd":      func(c *obdrel.Config) { c.VDD = -1.2 },
		"nan sigma":         func(c *obdrel.Config) { c.SigmaRatio = math.NaN() },
		"nan fraction":      func(c *obdrel.Config) { c.FracSpatial = math.NaN() },
		"negative fraction": func(c *obdrel.Config) { c.FracGlobal = -0.5 },
		"zero grid":         func(c *obdrel.Config) { c.GridNx = 0 },
		"negative grid":     func(c *obdrel.Config) { c.GridNy = -8 },
		"nan rho":           func(c *obdrel.Config) { c.RhoDist = math.NaN() },
		"inf rho":           func(c *obdrel.Config) { c.RhoDist = math.Inf(1) },
		"negative qt":       func(c *obdrel.Config) { c.QuadTreeLevels = -1 },
		"nan qt decay":      func(c *obdrel.Config) { c.QuadTreeDecay = math.NaN() },
		"pca keep > 1":      func(c *obdrel.Config) { c.PCAKeepFraction = 1.5 },
		"nan pca keep":      func(c *obdrel.Config) { c.PCAKeepFraction = math.NaN() },
		"negative l0":       func(c *obdrel.Config) { c.L0 = -1 },
		"negative stmc":     func(c *obdrel.Config) { c.StMCSamples = -5 },
		"negative mc":       func(c *obdrel.Config) { c.MCSamples = -5 },
		"negative hybrid":   func(c *obdrel.Config) { c.HybridNL = -2 },
		"nan guard":         func(c *obdrel.Config) { c.GuardSigmas = math.NaN() },
		"inf guard":         func(c *obdrel.Config) { c.GuardSigmas = math.Inf(1) },
		"negative workers":  func(c *obdrel.Config) { c.Workers = -1 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := obdrel.DefaultConfig()
			mutate(cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("garbage config validated")
			}
			if !strings.Contains(err.Error(), "obdrel:") {
				t.Fatalf("error %q lacks package context", err)
			}
			if _, aerr := obdrel.NewAnalyzer(obdrel.C1(), cfg); aerr == nil {
				t.Fatal("NewAnalyzer accepted a config Validate rejects")
			}
		})
	}
}

// TestQueryInputValidation pins the per-query hardening on an already
// valid analyzer.
func TestQueryInputValidation(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.LifetimePPM(0, obdrel.MethodStFast); err == nil {
		t.Error("ppm 0 accepted")
	}
	if _, err := an.LifetimePPM(math.NaN(), obdrel.MethodStFast); err == nil {
		t.Error("NaN ppm accepted")
	}
	if _, err := an.LifetimePPM(1e6, obdrel.MethodStFast); err == nil {
		t.Error("ppm ≥ 1e6 accepted (unreachable failure probability)")
	}
	if _, err := an.FailureProb(math.NaN(), obdrel.MethodStFast); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := an.FailureProb(math.Inf(1), obdrel.MethodHybrid); err == nil {
		t.Error("Inf time accepted")
	}
	if _, err := an.FailureContributions(math.NaN()); err == nil {
		t.Error("NaN contribution time accepted")
	}
	if _, err := obdrel.MaxVDD(obdrel.C1(), fastConfig(), obdrel.MethodStFast, 10, math.Inf(1), 1.0, 1.2, 0.05); err == nil {
		t.Error("Inf target hours accepted")
	}
}

// TestTraceFingerprint pins the trace fingerprint's sensitivity to
// every Segment field, plus segment order and count — any field added
// to Segment without extending Fingerprint would silently alias cache
// entries, so a reflection guard counts the fields.
func TestTraceFingerprint(t *testing.T) {
	base := obdrel.Trace{
		{Hours: 4000, VDD: 1.0, ActivityScale: 0.5, TempC: 55},
		{Hours: 3000, VDD: 1.2, ActivityScale: 1, TempC: 0},
	}
	if base.Fingerprint() != append(obdrel.Trace(nil), base...).Fingerprint() {
		t.Fatal("identical traces produced different fingerprints")
	}
	mutations := map[string]func(tr obdrel.Trace){
		"hours":    func(tr obdrel.Trace) { tr[0].Hours = 4001 },
		"vdd":      func(tr obdrel.Trace) { tr[0].VDD = 1.05 },
		"activity": func(tr obdrel.Trace) { tr[0].ActivityScale = 0.6 },
		"temp":     func(tr obdrel.Trace) { tr[0].TempC = 56 },
	}
	if got := reflect.TypeOf(obdrel.Segment{}).NumField(); got != len(mutations) {
		t.Fatalf("Segment has %d fields but the fingerprint test mutates %d — "+
			"extend Trace.Fingerprint and this test for the new field", got, len(mutations))
	}
	seen := map[string]string{"base": base.Fingerprint()}
	for name, mutate := range mutations {
		tr := append(obdrel.Trace(nil), base...)
		mutate(tr)
		fp := tr.Fingerprint()
		for prev, prevFP := range seen {
			if fp == prevFP {
				t.Fatalf("mutation %q collides with %q", name, prev)
			}
		}
		seen[name] = fp
	}
	// Order and length sensitivity.
	swapped := obdrel.Trace{base[1], base[0]}
	if swapped.Fingerprint() == base.Fingerprint() {
		t.Fatal("segment order does not affect the fingerprint")
	}
	if base[:1].Fingerprint() == base.Fingerprint() {
		t.Fatal("segment count does not affect the fingerprint")
	}
}

// TestTraceCacheKey checks the composed registry key: design, config,
// and trace each contribute independently.
func TestTraceCacheKey(t *testing.T) {
	cfg := obdrel.DefaultConfig()
	tr := obdrel.Trace{{Hours: 100, VDD: 1.2, ActivityScale: 1, TempC: 55}}
	key := obdrel.TraceCacheKeyFrom(obdrel.CacheKey(obdrel.C1(), cfg), tr)
	if !strings.HasPrefix(key, obdrel.CacheKey(obdrel.C1(), cfg)+":") {
		t.Fatal("trace cache key should extend the unary cache key")
	}
	if !strings.HasSuffix(key, tr.Fingerprint()) {
		t.Fatal("trace cache key should end with the trace fingerprint")
	}
	other := obdrel.Trace{{Hours: 200, VDD: 1.2, ActivityScale: 1, TempC: 55}}
	if obdrel.TraceCacheKeyFrom(obdrel.CacheKey(obdrel.C1(), cfg), other) == key {
		t.Fatal("different traces share a cache key")
	}
	if obdrel.TraceCacheKeyFrom(obdrel.CacheKey(obdrel.C2(), cfg), tr) == key {
		t.Fatal("different designs share a trace cache key")
	}
}
