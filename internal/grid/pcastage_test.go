package grid_test

import (
	"context"
	"sync"
	"testing"

	"obdrel"
	"obdrel/internal/grid"
	"obdrel/internal/pipeline"
)

// PCA memoization lives in the analyzer's pca stage, keyed by the
// parameters the eigendecomposition depends on. These tests drive it
// through the public constructor against a private stage cache, so
// they exercise the real stage key rather than a copy of it.

func stageConfig(nx int, rho float64) *obdrel.Config {
	cfg := obdrel.DefaultConfig()
	cfg.GridNx, cfg.GridNy = nx, nx
	cfg.RhoDist = rho
	cfg.MCSamples = 100
	cfg.StMCSamples = 500
	return cfg
}

func buildIn(t *testing.T, cache *pipeline.Cache, cfg *obdrel.Config) {
	t.Helper()
	if _, err := obdrel.NewAnalyzerCtxIn(context.Background(), cache, obdrel.C1(), cfg); err != nil {
		t.Error(err)
	}
}

// TestPCACacheComputesOncePerKey is the Table IV/V contract: the
// eigendecomposition runs once per distinct (geometry, ρ_dist) key no
// matter how many sweep cells request it.
func TestPCACacheComputesOncePerKey(t *testing.T) {
	cache := pipeline.NewCache(64)
	for i := 0; i < 6; i++ {
		buildIn(t, cache, stageConfig(6, 0.5))
	}
	st := cache.Stat(obdrel.StagePCA)
	if st.Builds != 1 {
		t.Fatalf("Builds = %d after repeated identical keys, want 1", st.Builds)
	}
	if st.Hits != 5 {
		t.Fatalf("Hits = %d, want 5", st.Hits)
	}

	// Distinct ρ_dist and grid keys each decompose exactly once.
	buildIn(t, cache, stageConfig(6, 0.25))
	buildIn(t, cache, stageConfig(5, 0.5))
	buildIn(t, cache, stageConfig(5, 0.5))
	if n := cache.Stat(obdrel.StagePCA).Builds; n != 3 {
		t.Fatalf("Builds = %d after 3 distinct keys, want 3", n)
	}
	if n := cache.Len(obdrel.StagePCA); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
}

// TestPCACacheKeyIgnoresIrrelevantParams: the wafer pattern is a
// deterministic mean shift that never enters the correlated
// covariance, so varying it must hit the same entry even though the
// variation model itself is rebuilt.
func TestPCACacheKeyIgnoresIrrelevantParams(t *testing.T) {
	cache := pipeline.NewCache(64)
	buildIn(t, cache, stageConfig(6, 0.5))
	cfg := stageConfig(6, 0.5)
	cfg.WaferPattern = &grid.WaferPattern{DieSpan: 20, Bowl: 0.4}
	buildIn(t, cache, cfg)
	st := cache.Stat(obdrel.StagePCA)
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("Builds = %d, Hits = %d: the wafer pattern changed the pca key but not the covariance", st.Builds, st.Hits)
	}
	if n := cache.Stat(obdrel.StageCovariance).Builds; n != 2 {
		t.Fatalf("covariance Builds = %d, want 2 (the model itself did change)", n)
	}
}

// TestPCACacheConcurrentSingleflight: many goroutines requesting the
// same key must trigger exactly one decomposition.
func TestPCACacheConcurrentSingleflight(t *testing.T) {
	cache := pipeline.NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buildIn(t, cache, stageConfig(7, 0.5))
		}()
	}
	wg.Wait()
	if n := cache.Stat(obdrel.StagePCA).Builds; n != 1 {
		t.Fatalf("Builds = %d under concurrent identical requests, want 1", n)
	}
	if n := cache.Len(obdrel.StagePCA); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}
