package obdrel

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obdrel/internal/fault"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/pipeline"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// quickConfig keeps white-box stage tests fast; mirrors the external
// suite's fastConfig.
func quickConfig() *Config {
	cfg := DefaultConfig()
	cfg.GridNx, cfg.GridNy = 8, 8
	cfg.MCSamples = 600
	cfg.StMCSamples = 3000
	return cfg
}

// TestStageFingerprintSensitivity walks EVERY Config field and asserts
// that perturbing it changes exactly the stage keys of the stages that
// depend on it — and the whole-config fingerprint iff the field is a
// model knob. The reflection guard at the bottom fails the test when a
// new Config field is added without declaring its stage footprint, so
// the dependency table can never silently go stale.
func TestStageFingerprintSensitivity(t *testing.T) {
	d := C1()
	base := DefaultConfig()
	// Make the quad-tree shape knobs live so their cases are not
	// vacuous (with QuadTree=false they resolve to zeros).
	base.QuadTree = true

	// Shorthands for the stage sets a knob is allowed to touch.
	substrate := []string{StageCovariance, StagePCA, StageBLOD, StageChip}
	voltagePath := []string{StageThermal, StageWeibull, StageChip}

	cases := []struct {
		field    string
		mutate   func(*Config)
		stages   []string // stage keys that must change (others must not)
		fpChange bool     // Config.Fingerprint must change
	}{
		{"VDD", func(c *Config) { c.VDD += 0.1 }, voltagePath, true},
		{"SigmaRatio", func(c *Config) { c.SigmaRatio *= 1.5 }, substrate, true},
		{"FracGlobal", func(c *Config) { c.FracGlobal += 0.1 }, substrate, true},
		{"FracSpatial", func(c *Config) { c.FracSpatial += 0.1 }, substrate, true},
		// σ_ε never enters the correlated-component covariance, so the
		// PCA is shared across FracIndependent sweeps (Sec. III-B).
		{"FracIndependent", func(c *Config) { c.FracIndependent += 0.1 },
			[]string{StageCovariance, StageBLOD, StageChip}, true},
		{"RhoDist", func(c *Config) { c.RhoDist *= 2 }, substrate, true},
		{"GridNx", func(c *Config) { c.GridNx += 2 }, substrate, true},
		{"GridNy", func(c *Config) { c.GridNy += 2 }, substrate, true},
		{"QuadTree", func(c *Config) { c.QuadTree = false }, substrate, true},
		{"QuadTreeLevels", func(c *Config) { c.QuadTreeLevels = 5 }, substrate, true},
		{"QuadTreeDecay", func(c *Config) { c.QuadTreeDecay = 0.7 }, substrate, true},
		// The wafer pattern is a deterministic mean shift: it moves the
		// covariance model's identity but not the eigendecomposition.
		{"WaferPattern", func(c *Config) {
			c.WaferPattern = &grid.WaferPattern{DieX: 1, DieY: 2, DieSpan: 20, Bowl: 0.4}
		}, []string{StageCovariance, StageBLOD, StageChip}, true},
		{"PCAKeepFraction", func(c *Config) { c.PCAKeepFraction = 0.5 },
			[]string{StagePCA}, true},
		{"Tech", func(c *Config) {
			tc := *obd.DefaultTech()
			tc.U0 *= 1.1
			c.Tech = &tc
		}, []string{StageCovariance, StagePCA, StageBLOD, StageWeibull, StageChip}, true},
		{"Extrinsic", func(c *Config) {
			e := *obd.DefaultExtrinsic()
			e.DefectFraction = 0.02
			c.Extrinsic = &e
		}, []string{StageWeibull, StageChip}, true},
		{"Power", func(c *Config) {
			pm := *power.Default()
			pm.VNom *= 1.1
			c.Power = &pm
		}, []string{StagePowerMap, StageThermal, StageWeibull, StageChip}, true},
		{"Thermal", func(c *Config) {
			ts := *thermal.DefaultSolver()
			ts.TAmbient += 10
			c.Thermal = &ts
		}, voltagePath, true},
		{"UseBlockMaxTemp", func(c *Config) { c.UseBlockMaxTemp = !c.UseBlockMaxTemp },
			[]string{StageWeibull, StageChip}, true},
		// Pinning the thermal voltage moves the thermal key (and what
		// depends on it) — that is exactly its purpose: the key then
		// stops moving with VDD.
		{"PinThermalVDD", func(c *Config) { c.PinThermalVDD = 1.1 }, voltagePath, true},

		// Engine knobs configure how questions are answered, not what
		// the chip is: no stage key moves, but the analyzer identity
		// does.
		{"L0", func(c *Config) { c.L0 += 8 }, nil, true},
		{"StMCSamples", func(c *Config) { c.StMCSamples += 100 }, nil, true},
		{"StMCBins", func(c *Config) { c.StMCBins += 10 }, nil, true},
		{"MCSamples", func(c *Config) { c.MCSamples += 100 }, nil, true},
		{"HybridNL", func(c *Config) { c.HybridNL += 4 }, nil, true},
		{"HybridNB", func(c *Config) { c.HybridNB += 4 }, nil, true},
		{"GuardSigmas", func(c *Config) { c.GuardSigmas += 0.5 }, nil, true},
		{"Seed", func(c *Config) { c.Seed += 1 }, nil, true},

		// The performance knob selects execution strategy only: neither
		// stage keys nor the fingerprint may move, or caches would
		// fragment on knobs that do not change answers.
		{"Workers", func(c *Config) { c.Workers = 8 }, nil, false},
	}

	baseKeys := StageFingerprints(d, base)
	baseFP := base.Fingerprint()
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			cfg := *base
			tc.mutate(&cfg)
			keys := StageFingerprints(d, &cfg)
			want := map[string]bool{}
			for _, s := range tc.stages {
				want[s] = true
			}
			for _, stage := range StageNames() {
				changed := keys[stage] != baseKeys[stage]
				if changed != want[stage] {
					t.Errorf("stage %s key changed=%t, want %t", stage, changed, want[stage])
				}
			}
			if fpChanged := cfg.Fingerprint() != baseFP; fpChanged != tc.fpChange {
				t.Errorf("config fingerprint changed=%t, want %t", fpChanged, tc.fpChange)
			}
		})
	}

	// Reflection guard: every Config field must have exactly one case.
	seen := map[string]int{}
	for _, tc := range cases {
		seen[tc.field]++
	}
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if seen[name] != 1 {
			t.Errorf("Config field %s has %d sensitivity cases, want exactly 1 — declare its stage footprint", name, seen[name])
		}
		delete(seen, name)
	}
	for name := range seen {
		t.Errorf("sensitivity case %q matches no Config field", name)
	}
}

// TestMaxVDDStageReuse: across a whole voltage bisection the
// voltage-independent stages (thermal operator, covariance, PCA, BLOD)
// build exactly once, the voltage-dependent tail (thermal,
// weibull) builds once per distinct probe voltage, and a warm repeat
// of the same search builds nothing at all.
func TestMaxVDDStageReuse(t *testing.T) {
	cache := pipeline.NewCache(64)
	cfg := quickConfig()
	const (
		ppm    = 10.0
		target = 5 * 8760.0
	)
	probes, built := 0, 0
	factory := func(ctx context.Context, d *Design, c *Config) (*Analyzer, error) {
		probes++
		an, err := NewAnalyzerCtxIn(ctx, cache, d, c)
		if err == nil {
			// A probe near the top of the bracket can fail outright
			// (power/thermal runaway) — the search treats that as
			// "fails the requirement", and a failed build lands in no
			// stage counter.
			built++
		}
		return an, err
	}
	search := func() float64 {
		v, err := MaxVDDFromCtx(context.Background(), factory, C1(), cfg,
			MethodStFast, ppm, target, 1.0, 1.5, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := search()
	if !(v > 1.0 && v < 1.5) {
		t.Fatalf("MaxVDD = %v, expected interior solution", v)
	}
	if probes < 8 || built < 8 {
		t.Fatalf("bisection ran %d probes (%d characterized), want ≥ 8 for a meaningful reuse test", probes, built)
	}
	buildsOf := func(stage string) int64 { return cache.Stat(stage).Builds }
	for _, stage := range []string{StageFloorplan, StagePowerMap, StageThermalOp, StageCovariance, StagePCA, StageBLOD} {
		if n := buildsOf(stage); n != 1 {
			t.Errorf("%d-probe search built stage %s %d times, want 1", probes, stage, n)
		}
	}
	// Every probe voltage is distinct, so the voltage-keyed tail
	// builds once per characterized probe — no more (a rebuilt probe
	// would mean the cache failed) and no fewer (a shared build would
	// mean thermal is wrongly voltage-independent).
	for _, stage := range []string{StageThermal, StageWeibull, StageChip} {
		if n := buildsOf(stage); n != int64(built) {
			t.Errorf("stage %s built %d times across %d distinct-voltage probes", stage, n, built)
		}
	}

	// Warm repeat: the identical search replays the identical probe
	// sequence and must be served entirely from the stage cache.
	before := map[string]int64{}
	for _, s := range StageNames() {
		before[s] = buildsOf(s)
	}
	coldProbes := probes
	if v2 := search(); v2 != v {
		t.Fatalf("warm search returned %v, cold returned %v", v2, v)
	}
	if probes != 2*coldProbes {
		t.Fatalf("warm search ran %d probes, want %d", probes-coldProbes, coldProbes)
	}
	for _, s := range StageNames() {
		if n := buildsOf(s); n != before[s] {
			t.Errorf("warm search rebuilt stage %s (%d → %d builds)", s, before[s], n)
		}
	}
}

// TestThermalOperatorOncePerDesign: a VDD sweep and a trace whose
// solved segments scale the activity all share their design's thermal
// operator, so each design builds one while every distinct (VDD,
// activity) point still builds its own thermal artifact.
func TestThermalOperatorOncePerDesign(t *testing.T) {
	cache := pipeline.NewCache(64)
	ctx := context.Background()
	tr := Trace{
		{Hours: 100, VDD: 1.05, ActivityScale: 0.5},
		{Hours: 300, VDD: 1.25, ActivityScale: 0.9},
		{Hours: 50, VDD: 1.15, ActivityScale: 0.7},
		{Hours: 20, VDD: 1.2, TempC: 80},
	}
	designs := []*Design{C1(), C2()}
	for _, d := range designs {
		for _, vdd := range []float64{1.0, 1.1, 1.2, 1.3} {
			cfg := quickConfig()
			cfg.VDD = vdd
			if _, err := NewAnalyzerCtxIn(ctx, cache, d, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewTraceAnalyzerCtxIn(ctx, cache, d, quickConfig(), tr); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.Stat(StageThermalOp).Builds; n != int64(len(designs)) {
		t.Errorf("built %d thermal operators for %d designs, want one each", n, len(designs))
	}
	if n, want := cache.Stat(StageThermal).Builds, int64(len(designs)*(4+3)); n != want {
		t.Errorf("built %d thermal artifacts, want %d (4 VDDs and 3 solved segments per design)", n, want)
	}
}

// TestMaxVDDPinnedThermal pins the DRM approximation knob: with
// PinThermalVDD the thermal key stops moving with the probe voltage,
// so an entire bisection performs exactly ONE thermal solve (and one
// PCA build) — the ISSUE 3 acceptance numbers.
func TestMaxVDDPinnedThermal(t *testing.T) {
	cache := pipeline.NewCache(64)
	cfg := quickConfig()
	cfg.PinThermalVDD = 1.2 // characterize the die at the reference corner
	probes := 0
	factory := func(ctx context.Context, d *Design, c *Config) (*Analyzer, error) {
		probes++
		return NewAnalyzerCtxIn(ctx, cache, d, c)
	}
	v, err := MaxVDDFromCtx(context.Background(), factory, C1(), cfg,
		MethodStFast, 10, 5*8760.0, 1.0, 1.5, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if !(v > 1.0 && v < 1.5) {
		t.Fatalf("MaxVDD = %v, expected interior solution", v)
	}
	if probes < 8 {
		t.Fatalf("bisection ran %d probes, want ≥ 8", probes)
	}
	if n := cache.Stat(StageThermal).Builds; n != 1 {
		t.Errorf("pinned-thermal search ran %d thermal solves across %d probes, want exactly 1", n, probes)
	}
	if n := cache.Stat(StagePCA).Builds; n != 1 {
		t.Errorf("pinned-thermal search ran %d PCA builds, want exactly 1", n)
	}
	// Weibull still moves with VDD — the pin is a thermal
	// approximation, not a characterization shortcut.
	if n := cache.Stat(StageWeibull).Builds; n != int64(probes) {
		t.Errorf("weibull built %d times, want %d (once per probe voltage)", n, probes)
	}
}

// TestNewAnalyzerCtxCancellation times the cancellation contract:
// cancelling the construction context mid-build must abort the stage
// computation promptly instead of letting it run to completion.
func TestNewAnalyzerCtxCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridNx, cfg.GridNy = 40, 40 // 1600-node eigendecomposition: a deliberately slow build

	// A nil stage cache keeps the runs independent and every build
	// inline under the caller's ctx.
	start := time.Now()
	if _, err := NewAnalyzerCtxIn(context.Background(), nil, C6(), cfg); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if cold < 100*time.Millisecond {
		t.Skipf("build completes in %v — too fast to time cancellation against", cold)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(cold / 20)
		cancel()
	}()
	start = time.Now()
	_, err := NewAnalyzerCtxIn(ctx, nil, C6(), cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if limit := cold/2 + 100*time.Millisecond; elapsed > limit {
		t.Fatalf("cancelled build returned after %v (cold build: %v) — cancellation did not stop the stage computation", elapsed, cold)
	}
}

// TestSubstrateOverlapBitIdentical: resolving the PCA and BLOD side by
// side (Workers 2) answers bit-identically to resolving them one after
// the other (Workers 1), for every method, and either way a cold
// construction builds each stage exactly once.
func TestSubstrateOverlapBitIdentical(t *testing.T) {
	methods := []Method{MethodStFast, MethodHybrid, MethodGuard, MethodStMC, MethodMC}
	var ref []float64
	for _, workers := range []int{1, 2} {
		cfg := quickConfig()
		cfg.MCSamples, cfg.StMCSamples = 100, 500
		cfg.Workers = workers
		cache := pipeline.NewCache(16)
		an, err := NewAnalyzerCtxIn(context.Background(), cache, C1(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{StagePCA, StageBLOD} {
			if n := cache.Stat(s).Builds; n != 1 {
				t.Errorf("workers=%d: stage %s built %d times, want 1", workers, s, n)
			}
		}
		got := make([]float64, len(methods))
		for i, m := range methods {
			if got[i], err = an.LifetimePPM(10, m); err != nil {
				t.Fatalf("workers=%d method %v: %v", workers, m, err)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i, m := range methods {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Errorf("method %v: workers=2 %v, workers=1 %v", m, got[i], ref[i])
			}
		}
	}
}

// TestSubstrateOverlapsPCAAndBLOD: with two workers, BLOD (pulled by
// the chip build) builds while the PCA is still building, at any
// GOMAXPROCS, since Workers does not cap the constructor's list. An
// injected delay holds the PCA build open; resolved one after the
// other, BLOD could not start until it ended.
func TestSubstrateOverlapsPCAAndBLOD(t *testing.T) {
	spec, err := fault.ParseSpec("pipeline.build(pca):latency:300ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(spec.Injector(1))
	defer fault.Disarm()
	cfg := quickConfig()
	cfg.Workers = 2
	cache := pipeline.NewCache(16)
	done := make(chan struct{})
	overlapped := make(chan bool, 1)
	go func() {
		for {
			if cache.Stat(StageBLOD).Builds == 1 && cache.Stat(StagePCA).Builds == 0 {
				overlapped <- true
				return
			}
			select {
			case <-done:
				overlapped <- false
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err = NewAnalyzerCtxIn(context.Background(), cache, C1(), cfg)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if !<-overlapped {
		t.Fatal("BLOD did not build while the PCA was building")
	}
}

// TestSubstrateErrorPrecedence injects build failures into the pca and
// blod stages: a PCA failure wins over a BLOD failure, as in the
// serial order, and a BLOD failure alone surfaces as itself, whether
// the two resolve side by side or one after the other.
func TestSubstrateErrorPrecedence(t *testing.T) {
	for _, c := range []struct {
		spec, want string
	}{
		{"pipeline.build(pca):perm:1,pipeline.build(blod):perm:1", StagePCA},
		{"pipeline.build(pca):perm:1", StagePCA},
		{"pipeline.build(blod):perm:1", StageBLOD},
	} {
		for _, workers := range []int{1, 2} {
			spec, err := fault.ParseSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			fault.Arm(spec.Injector(1))
			cfg := quickConfig()
			cfg.Workers = workers
			cache := pipeline.NewCache(16)
			_, err = NewAnalyzerCtxIn(context.Background(), cache, C1(), cfg)
			fault.Disarm()
			var se *fault.StageError
			var ie *fault.InjectedError
			if !errors.As(err, &se) || se.Stage != c.want || !errors.As(err, &ie) {
				t.Errorf("%s workers=%d: err = %v, want the injected %s StageError", c.spec, workers, err, c.want)
			}
			// One after the other, a failed PCA stops the construction
			// before BLOD starts.
			if st := cache.Stat(StageBLOD); workers == 1 && c.want == StagePCA && st.Builds+st.Misses != 0 {
				t.Errorf("%s workers=1: BLOD looked up after the PCA failed (%d misses, %d builds)", c.spec, st.Misses, st.Builds)
			}
		}
	}
}

// TestSubstrateCancelMidPCA is TestNewAnalyzerCtxCancellation's
// contract on the overlapped path with a stage cache: cancelling a
// construction while its PCA builds returns context.Canceled promptly,
// and the abandoned PCA flight stops instead of running to completion.
func TestSubstrateCancelMidPCA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridNx, cfg.GridNy = 40, 40 // a deliberately slow PCA
	cfg.Workers = 2

	start := time.Now()
	if _, err := NewAnalyzerCtxIn(context.Background(), pipeline.NewCache(16), C6(), cfg); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if cold < 100*time.Millisecond {
		t.Skipf("build completes in %v — too fast to time cancellation against", cold)
	}

	cache := pipeline.NewCache(16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel once the PCA's flight exists: its miss is counted
		// just before the flight starts, and its build pulls the
		// covariance, so it runs on past the cancel unless stopped.
		for cache.Stat(StagePCA).Misses == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start = time.Now()
	_, err := NewAnalyzerCtxIn(ctx, cache, C6(), cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	limit := cold/2 + 100*time.Millisecond
	if elapsed > limit {
		t.Fatalf("cancelled construction returned after %v (cold build: %v)", elapsed, cold)
	}
	deadline := time.Now().Add(limit)
	for cache.Stat(StagePCA).Cancels == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := cache.Stat(StagePCA); st.Cancels != 1 || st.Builds != 0 {
		t.Fatalf("pca stage after the cancel: %d cancels, %d builds; want the flight cancelled, not built", st.Cancels, st.Builds)
	}
}

// TestPeerFillFetchesConcurrently: a node that holds a design's
// floorplan and power map but neither its PCA nor its chip fetches
// both side by side, and nothing else: the fetched chip leaves
// thermal, weibull and BLOD unresolved. The fake peer tier answers no
// fetch until both are in flight, so resolving them one after another
// would stall until its timeout.
func TestPeerFillFetchesConcurrently(t *testing.T) {
	ctx := context.Background()
	d := C1()
	cfg := quickConfig()
	cfg.Workers = 2
	leader := pipeline.NewCache(16)
	if _, err := NewAnalyzerCtxIn(ctx, leader, d, cfg); err != nil {
		t.Fatal(err)
	}
	// The follower builds the design at another voltage and another
	// correlation distance, so it shares only the floorplan and power
	// map keys.
	follower := pipeline.NewCache(16)
	other := quickConfig()
	other.VDD += 0.05
	other.RhoDist *= 1.5
	if _, err := NewAnalyzerCtxIn(ctx, follower, d, other); err != nil {
		t.Fatal(err)
	}
	const want = 2
	var (
		mu      sync.Mutex
		fetched []string
		all     = make(chan struct{})
		stalled atomic.Bool
	)
	follower.SetTiers(pipeline.Tiers{Fetch: func(fctx context.Context, stage, key string) ([]byte, bool, error) {
		mu.Lock()
		fetched = append(fetched, stage)
		if len(fetched) == want {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			stalled.Store(true)
		case <-fctx.Done():
			return nil, false, fctx.Err()
		}
		sealed, ok := leader.Sealed(stage, key)
		return sealed, ok, nil
	}})
	if _, err := NewAnalyzerCtxIn(ctx, follower, d, cfg); err != nil {
		t.Fatal(err)
	}
	if stalled.Load() {
		t.Fatalf("fetches %v: a fetch waited 5 s for %d to be in flight at once", fetched, want)
	}
	slices.Sort(fetched)
	if w := []string{StageChip, StagePCA}; !slices.Equal(fetched, w) {
		t.Errorf("fetched %v, want %v", fetched, w)
	}
	for _, stage := range fetched {
		if n := follower.Stat(stage).PeerHits; n != 1 {
			t.Errorf("stage %s: %d peer hits, want 1", stage, n)
		}
	}
}

// peerFilled builds d under cfg cold into an owner's cache, then
// constructs it on a follower whose only source is a fetch tier over
// the owner's sealed artifacts. Every fetch of a stage in slow first
// sleeps for that long, so concurrent readers overlap.
func peerFilled(t *testing.T, d *Design, cfg *Config, slow map[string]time.Duration) (owner, follower *Analyzer, fc *pipeline.Cache) {
	t.Helper()
	ctx := context.Background()
	oc := pipeline.NewCache(16)
	owner, err := NewAnalyzerCtxIn(ctx, oc, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc = pipeline.NewCache(16)
	fc.SetTiers(pipeline.Tiers{Fetch: func(fctx context.Context, stage, key string) ([]byte, bool, error) {
		time.Sleep(slow[stage])
		sealed, ok := oc.Sealed(stage, key)
		return sealed, ok, nil
	}})
	if follower, err = NewAnalyzerCtxIn(ctx, fc, d, cfg); err != nil {
		t.Fatal(err)
	}
	return owner, follower, fc
}

// lookups counts a stage's cache lookups.
func lookups(c *pipeline.Cache, stage string) int64 {
	st := c.Stat(stage)
	return st.Hits + st.Misses
}

// TestPeerFilledAnalyzerReportsBitIdentical: a follower whose chip came
// from a tier resolves weibull and thermal only when Blocks,
// TemperatureField or TempSpread first reads them, and then answers
// every report bit-identically to the owner. FailureContributions and
// BurnIn read the chip and the design alone, so they resolve neither.
func TestPeerFilledAnalyzerReportsBitIdentical(t *testing.T) {
	cfg := quickConfig()
	cfg.Extrinsic = obd.DefaultExtrinsic()
	owner, follower, fc := peerFilled(t, C1(), cfg, nil)
	unresolved := func(when string) {
		t.Helper()
		for _, stage := range []string{StageThermal, StageWeibull} {
			if n := lookups(fc, stage); n != 0 {
				t.Errorf("%s: follower looked %s up %d times, want 0", when, stage, n)
			}
		}
	}
	unresolved("construction")

	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, tt := range []float64{1e4, 1e5} {
		want, err := owner.FailureContributions(tt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.FailureContributions(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FailureContributions(%v): owner %v, follower %v", tt, want, got)
		}
	}
	wantB, err := owner.BurnIn(1.6, 125, 24)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := follower.BurnIn(1.6, 125, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bits(gotB.Fallout), bits(wantB.Fallout)) ||
		!slices.Equal(bits(gotB.IntrinsicEqHours...), bits(wantB.IntrinsicEqHours...)) ||
		!slices.Equal(bits(gotB.ExtrinsicEqHours...), bits(wantB.ExtrinsicEqHours...)) {
		t.Errorf("BurnIn: owner %+v, follower %+v", wantB, gotB)
	}
	lw, err := wantB.LifetimePPM(10)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := gotB.LifetimePPM(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lg) != math.Float64bits(lw) {
		t.Errorf("post-screen lifetime: owner %v, follower %v", lw, lg)
	}
	unresolved("FailureContributions and BurnIn")

	nx, ny, temps := follower.TemperatureField()
	wx, wy, wtemps := owner.TemperatureField()
	if nx != wx || ny != wy || !slices.Equal(bits(temps...), bits(wtemps...)) {
		t.Errorf("TemperatureField: owner %dx%d, follower %dx%d, or the cells differ", wx, wy, nx, ny)
	}
	lo, mean, hi := follower.TempSpread()
	wlo, wmean, whi := owner.TempSpread()
	if !slices.Equal(bits(lo, mean, hi), bits(wlo, wmean, whi)) {
		t.Errorf("TempSpread: owner %v %v %v, follower %v %v %v", wlo, wmean, whi, lo, mean, hi)
	}
	if got, want := follower.Blocks(), owner.Blocks(); !reflect.DeepEqual(got, want) {
		t.Errorf("Blocks: owner %v, follower %v", want, got)
	}
	for _, stage := range []string{StageThermal, StageWeibull} {
		if st := fc.Stat(stage); st.PeerHits != 1 || st.Builds != 0 {
			t.Errorf("stage %s: peerHits=%d builds=%d, want 1/0", stage, st.PeerHits, st.Builds)
		}
	}
}

// TestConcurrentFirstReadsResolveOnce: concurrent first readers of a
// peer-filled analyzer's operating point share one resolution, so each
// side stage is looked up and fetched exactly once.
func TestConcurrentFirstReadsResolveOnce(t *testing.T) {
	slow := map[string]time.Duration{StageThermal: 20 * time.Millisecond, StageWeibull: 20 * time.Millisecond}
	_, an, fc := peerFilled(t, C1(), quickConfig(), slow)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 4 {
			case 0:
				an.Blocks()
			case 1:
				an.TempSpread()
			case 2:
				an.TemperatureField()
			default:
				if err := an.ResolveOperatingPoint(context.Background()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, stage := range []string{StageThermal, StageWeibull} {
		if st := fc.Stat(stage); st.Hits+st.Misses != 1 || st.PeerHits != 1 || st.Builds != 0 {
			t.Errorf("stage %s: lookups=%d peerHits=%d builds=%d, want 1/1/0", stage, st.Hits+st.Misses, st.PeerHits, st.Builds)
		}
	}
	if len(an.Blocks()) != len(C1().Blocks) {
		t.Error("Blocks lost the resolved operating point")
	}
}

// TestOperatingPointFailureRetried: a failed or cancelled resolution of
// the operating point surfaces as its error, is not kept, and the next
// read resolves it.
func TestOperatingPointFailureRetried(t *testing.T) {
	_, an, fc := peerFilled(t, C1(), quickConfig(), nil)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := an.ResolveOperatingPoint(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resolution: err = %v, want context.Canceled", err)
	}
	spec, err := fault.ParseSpec("pipeline.build(weibull):perm:1")
	if err != nil {
		t.Fatal(err)
	}
	// The fetch tier has lost weibull, so the fill falls back to a
	// build, which the armed rule fails.
	fc.SetTiers(pipeline.Tiers{})
	fault.Arm(spec.Injector(1))
	err = an.ResolveOperatingPoint(context.Background())
	blocks := an.Blocks()
	lo, _, _ := an.TempSpread()
	fault.Disarm()
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != StageWeibull {
		t.Fatalf("failed resolution: err = %v, want weibull's StageError", err)
	}
	if blocks != nil || !math.IsNaN(lo) {
		t.Errorf("a failed read returned blocks %v, min temperature %v; want nil and NaN", blocks, lo)
	}
	if err := an.ResolveOperatingPoint(context.Background()); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if len(an.Blocks()) != len(C1().Blocks) {
		t.Error("retry: Blocks empty")
	}
}

// BenchmarkConstructFreshVDD times one analyzer construction of C1 at
// a supply voltage no earlier iteration used, over a warm substrate in
// a private cache: the PCA is resident, and the chip builds with its
// voltage-dependent inputs (weibull, thermal) while BLOD and the
// thermal operator are hits. This is the path a batch stream's fresh
// VDDs take.
func BenchmarkConstructFreshVDD(b *testing.B) {
	ctx, d := context.Background(), C1()
	cache := pipeline.NewCache(64)
	if _, err := NewAnalyzerCtxIn(ctx, cache, d, DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.VDD += 1e-7 * float64(i+1)
		if _, err := NewAnalyzerCtxIn(ctx, cache, d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPulledFailureKeepsProvenance: a stage that fails as the input of
// another stage's build surfaces as itself, at every worker count.
// The consumers' flights pass its StageError through unwrapped, and
// only the failing stage counts a failure.
func TestPulledFailureKeepsProvenance(t *testing.T) {
	for _, failing := range []string{StageThermal, StageBLOD} {
		for _, workers := range []int{1, 2} {
			spec, err := fault.ParseSpec("pipeline.build(" + failing + "):perm:1")
			if err != nil {
				t.Fatal(err)
			}
			fault.Arm(spec.Injector(1))
			cfg := quickConfig()
			cfg.Workers = workers
			cache := pipeline.NewCache(16)
			_, err = NewAnalyzerCtxIn(context.Background(), cache, C1(), cfg)
			fault.Disarm()
			var se *fault.StageError
			if !errors.As(err, &se) || se.Stage != failing || !strings.HasPrefix(err.Error(), "stage "+failing+" [") {
				t.Errorf("%s workers=%d: err = %v, want it to name stage %s first", failing, workers, err, failing)
			}
			for _, st := range cache.Snapshot() {
				want := int64(0)
				if st.Stage == failing {
					want = 1
				}
				if st.Failures != want {
					t.Errorf("%s workers=%d: stage %s counted %d failures, want %d", failing, workers, st.Stage, st.Failures, want)
				}
			}
		}
	}
}

// TestStageCacheColdWarmEquivalence: the stage cache is a pure
// memoization — an analyzer assembled from cached artifacts answers
// bit-identically to one built with no stage cache at all.
func TestStageCacheColdWarmEquivalence(t *testing.T) {
	methods := []Method{MethodStFast, MethodStMC, MethodHybrid, MethodGuard, MethodMC}
	answers := func(an *Analyzer) []float64 {
		out := make([]float64, 0, len(methods))
		for _, m := range methods {
			life, err := an.LifetimePPM(10, m)
			if err != nil {
				t.Fatalf("method %v: %v", m, err)
			}
			out = append(out, life)
		}
		return out
	}

	anCold, err := NewAnalyzerCtxIn(context.Background(), nil, C1(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := answers(anCold)

	cache := pipeline.NewCache(16)
	for round := 1; round <= 2; round++ {
		an, err := NewAnalyzerCtxIn(context.Background(), cache, C1(), quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := answers(an)
		for i, m := range methods {
			if got[i] != ref[i] {
				t.Errorf("round %d method %v: cached %v != uncached %v", round, m, got[i], ref[i])
			}
		}
	}
	// Round 2 must have been fully warm.
	for _, s := range StageNames() {
		if n := cache.Stat(s).Builds; n != 1 {
			t.Errorf("stage %s built %d times across two constructions, want 1", s, n)
		}
	}
}
