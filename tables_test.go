package obdrel_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"obdrel"
	"obdrel/internal/artifact"
	"obdrel/internal/pipeline"
)

// tableConfig returns a fast config with small hybrid tables, which
// keep the fill cheap.
func tableConfig() *obdrel.Config {
	cfg := fastConfig()
	cfg.HybridNL, cfg.HybridNB = 24, 24
	return cfg
}

// tierCache returns a fresh stage cache spilling to dir, standing in
// for a daemon (re)started with -artifact-dir dir.
func tierCache(dir string) *pipeline.Cache {
	c := pipeline.NewCache(8)
	c.SetTiers(pipeline.Tiers{Dir: dir})
	return c
}

func hybridAnalyzer(t *testing.T, cache *pipeline.Cache, d *obdrel.Design, cfg *obdrel.Config) *obdrel.Analyzer {
	t.Helper()
	an, err := obdrel.NewAnalyzerCtxIn(context.Background(), cache, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// hybridLifetime answers a 10 ppm hybrid lifetime from an analyzer
// built in cache (nil: no cache, every stage built inline).
func hybridLifetime(t *testing.T, cache *pipeline.Cache, d *obdrel.Design, cfg *obdrel.Config) float64 {
	t.Helper()
	life, err := hybridAnalyzer(t, cache, d, cfg).LifetimePPM(10, obdrel.MethodHybrid)
	if err != nil {
		t.Fatal(err)
	}
	return life
}

// hybridPath is where the disk tier keeps the hybrid artifact of key.
func hybridPath(dir, key string) string {
	return filepath.Join(dir, artifact.FileName(obdrel.StageHybrid, key))
}

// wantHybridStat checks the hybrid stage's build and disk counters.
func wantHybridStat(t *testing.T, c *pipeline.Cache, builds, diskHits, diskRejects, spills int64) {
	t.Helper()
	st := c.Stat(obdrel.StageHybrid)
	if st.Builds != builds || st.DiskHits != diskHits || st.DiskRejects != diskRejects || st.Spills != spills {
		t.Errorf("hybrid stage builds/diskHits/diskRejects/spills = %d/%d/%d/%d, want %d/%d/%d/%d",
			st.Builds, st.DiskHits, st.DiskRejects, st.Spills, builds, diskHits, diskRejects, spills)
	}
}

// TestTableDirRoundTrip is the end-to-end contract of the hybrid
// stage's disk tier: the first build spills the tables, a restarted
// cache loads them without building, and the loaded engine answers
// bit-identically to one built with no cache at all.
func TestTableDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := obdrel.C1()
	cfg := tableConfig()

	fresh := hybridLifetime(t, nil, d, cfg)
	first := tierCache(dir)
	if spilled := hybridLifetime(t, first, d, cfg); spilled != fresh {
		t.Errorf("spilling lifetime %v != uncached %v", spilled, fresh)
	}
	wantHybridStat(t, first, 1, 0, 0, 1)
	if _, err := os.Stat(hybridPath(dir, obdrel.HybridTableKey(d, cfg))); err != nil {
		t.Fatalf("no hybrid artifact spilled under the analyzer's key: %v", err)
	}

	restarted := tierCache(dir)
	if loaded := hybridLifetime(t, restarted, d, cfg); loaded != fresh {
		t.Errorf("disk-served lifetime %v != uncached %v", loaded, fresh)
	}
	wantHybridStat(t, restarted, 0, 1, 0, 0)
}

// TestTableDirRejectsStaleAndCorrupt verifies the never-serve
// guarantees: an artifact written under another model configuration,
// one of linear tables from before the interp tag, one of tables filled
// by the midpoint rule before the closed form, and a bit-flipped one
// are each missed or rejected and rebuilt, never served.
func TestTableDirRejectsStaleAndCorrupt(t *testing.T) {
	d := obdrel.C1()

	t.Run("stale key", func(t *testing.T) {
		dir := t.TempDir()
		// Default VDD and VDD = 1.1 give two keys: VDD reaches the chip
		// fingerprint through the weibull stage.
		cfgV11 := tableConfig()
		cfgV11.VDD = 1.1
		oldKey := obdrel.HybridTableKey(d, tableConfig())
		newKey := obdrel.HybridTableKey(d, cfgV11)
		if oldKey == newKey {
			t.Fatal("hybrid key did not change with VDD")
		}
		hybridLifetime(t, tierCache(dir), d, tableConfig())
		want := hybridLifetime(t, tierCache(dir), d, cfgV11)

		// Clobber the VDD = 1.1 artifact with the default-VDD one: the
		// file name promises one key, the embedded key is another — a
		// stale spill directory after a model change.
		stale, err := os.ReadFile(hybridPath(dir, oldKey))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hybridPath(dir, newKey), stale, 0o644); err != nil {
			t.Fatal(err)
		}
		c := tierCache(dir)
		if got := hybridLifetime(t, c, d, cfgV11); got != want {
			t.Errorf("post-reject rebuild lifetime %v, want %v", got, want)
		}
		wantHybridStat(t, c, 1, 0, 1, 1)
	})

	// An artifact another build rule made must miss by name, and its
	// payload under the current name must be rejected by the embedded
	// key; neither may serve. Tables of D_j interpolated linearly answer
	// ≈2% off a fresh build, and were keyed without the interp tag;
	// tables filled by the midpoint rule sit up to ≈3e-5 off the closed
	// form's, and were keyed fill=series.
	for _, old := range []struct {
		name   string
		key    func(*obdrel.Design, *obdrel.Config) string
		tables func(any) any
	}{
		{"untagged fill key", obdrel.UntaggedHybridTableKey, obdrel.LinearHybridTables},
		{"series fill key", obdrel.SeriesHybridTableKey, func(v any) any { return obdrel.DriftedHybridTables(v, 3e-5) }},
	} {
		t.Run(old.name, func(t *testing.T) {
			cfg := tableConfig()
			want := hybridLifetime(t, nil, d, cfg)
			src := t.TempDir()
			hybridLifetime(t, tierCache(src), d, cfg)
			oldKey, newKey := old.key(d, cfg), obdrel.HybridTableKey(d, cfg)
			if oldKey == newKey {
				t.Fatal("the old and current hybrid keys are equal")
			}
			sealed, err := os.ReadFile(hybridPath(src, newKey))
			if err != nil {
				t.Fatal(err)
			}
			v, err := artifact.Decode(obdrel.StageHybrid, newKey, sealed)
			if err != nil {
				t.Fatal(err)
			}
			stale, err := artifact.Encode(obdrel.StageHybrid, oldKey, old.tables(v))
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			if err := artifact.WriteFile(dir, obdrel.StageHybrid, oldKey, stale); err != nil {
				t.Fatal(err)
			}
			c := tierCache(dir)
			if got := hybridLifetime(t, c, d, cfg); got != want {
				t.Errorf("lifetime beside a stale artifact %v, want %v", got, want)
			}
			wantHybridStat(t, c, 1, 0, 0, 1)

			if err := os.WriteFile(hybridPath(dir, newKey), stale, 0o644); err != nil {
				t.Fatal(err)
			}
			c = tierCache(dir)
			if got := hybridLifetime(t, c, d, cfg); got != want {
				t.Errorf("post-reject rebuild lifetime %v, want %v", got, want)
			}
			wantHybridStat(t, c, 1, 0, 1, 1)
		})
	}

	t.Run("corrupt payload", func(t *testing.T) {
		dir := t.TempDir()
		cfg := tableConfig()
		want := hybridLifetime(t, tierCache(dir), d, cfg)
		path := hybridPath(dir, obdrel.HybridTableKey(d, cfg))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-5] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c := tierCache(dir)
		if got := hybridLifetime(t, c, d, cfg); got != want {
			t.Errorf("post-corruption rebuild lifetime %v, want %v", got, want)
		}
		wantHybridStat(t, c, 1, 0, 1, 1)
	})
}

// TestTableServedZeroAlloc extends the zero-allocation gate to a
// hybrid engine whose tables were decoded from the disk tier: its
// queries must be exactly as allocation-free as a built engine's.
func TestTableServedZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	d := obdrel.C1()
	hybridLifetime(t, tierCache(dir), d, tableConfig()) // spill

	c := tierCache(dir)
	an := hybridAnalyzer(t, c, d, tableConfig())
	if _, err := an.FailureProb(1e4, obdrel.MethodHybrid); err != nil {
		t.Fatal(err) // warm: builds the engine from the decoded tables
	}
	wantHybridStat(t, c, 0, 1, 0, 0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := an.FailureProb(1e4, obdrel.MethodHybrid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm disk-served FailureProb allocates %v per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := an.LifetimePPM(10, obdrel.MethodHybrid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm disk-served LifetimePPM allocates %v per op, want 0", allocs)
	}
}

// TestHybridMatchesStFast gates the log-space tables at the paper's
// setup: on C1–C6, hybrid lifetimes at 1, 10 and 100 ppm, and hybrid
// failure probabilities at VDD ∈ {1.0, 1.2, 1.3} × t ∈ {1e4, 1e5,
// 1e6} h, stay within 1e-4 relative of st_fast. Tables of D_j itself,
// interpolated linearly, missed this by ≈2–3%.
func TestHybridMatchesStFast(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 18 default-resolution table sets")
	}
	const bound = 1e-4
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	var worstLife, worstP float64
	for _, d := range obdrel.Benchmarks() {
		for _, vdd := range []float64{1.0, 1.2, 1.3} {
			cfg := obdrel.DefaultConfig()
			cfg.VDD = vdd
			an, err := obdrel.NewAnalyzer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if vdd == obdrel.DefaultConfig().VDD {
				for _, ppm := range []float64{1, 10, 100} {
					fast, err := an.LifetimePPM(ppm, obdrel.MethodStFast)
					if err != nil {
						t.Fatal(err)
					}
					hyb, err := an.LifetimePPM(ppm, obdrel.MethodHybrid)
					if err != nil {
						t.Fatal(err)
					}
					if e := rel(hyb, fast); e > bound || math.IsNaN(e) {
						t.Errorf("%s %g ppm: hybrid lifetime %v, st_fast %v (rel %.2g)", d.Name, ppm, hyb, fast, e)
					} else {
						worstLife = math.Max(worstLife, e)
					}
				}
			}
			for _, h := range []float64{1e4, 1e5, 1e6} {
				fast, err := an.FailureProb(h, obdrel.MethodStFast)
				if err != nil {
					t.Fatal(err)
				}
				hyb, err := an.FailureProb(h, obdrel.MethodHybrid)
				if err != nil {
					t.Fatal(err)
				}
				if e := rel(hyb, fast); e > bound || math.IsNaN(e) {
					t.Errorf("%s %g V %g h: hybrid P_fail %v, st_fast %v (rel %.2g)", d.Name, vdd, h, hyb, fast, e)
				} else {
					worstP = math.Max(worstP, e)
				}
			}
		}
	}
	t.Logf("worst relative error: lifetime %.2g, P_fail %.2g", worstLife, worstP)
}
