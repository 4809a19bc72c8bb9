package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"obdrel"
	"obdrel/internal/pipeline"
)

// TestRegistryKeyIsCanonical holds the server's key helper to
// obdrel.CacheKey on every catalog design: the precomputed base key
// for a request without overrides, the catalog fingerprint plus the
// config hash for any other, and the probe path that passes no
// overrides at all. A base key that drifted from what a request's
// config canonically hashes to would serve one config's analyzer for
// another.
func TestRegistryKeyIsCanonical(t *testing.T) {
	s := mustNew(Options{Stages: pipeline.NewCache(4), DisableTracing: true, Workers: 3})
	f := func(v float64) *float64 { return &v }
	n := func(v int) *int { return &v }
	overrides := map[string]configParams{
		"none":          {},
		"vdd":           {VDD: f(1.1)},
		"rho_dist+grid": {RhoDist: f(0.3), Grid: n(8)},
		"hybrid_nl=100": {HybridNL: n(100)},
		"l0=32":         {L0: n(32)},
		"defects":       {Defects: f(0.02)},
	}
	for _, name := range s.order {
		d := s.designs[name]
		for label, p := range overrides {
			cfg, err := buildConfig(&p, &s.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			want := obdrel.CacheKey(d, cfg)
			if got := s.registryKey(d, &p, cfg); got != want {
				t.Errorf("%s/%s: registryKey = %s, want %s", name, label, got, want)
			}
			if got := s.registryKey(d, nil, cfg); got != want {
				t.Errorf("%s/%s probe: registryKey = %s, want %s", name, label, got, want)
			}
		}
		// Spelling out an engine default builds the same analyzer, so
		// it must land on the no-override key.
		base := s.keys[d].base
		for _, label := range []string{"hybrid_nl=100", "l0=32"} {
			p := overrides[label]
			cfg, _ := buildConfig(&p, &s.opts)
			if got := s.registryKey(d, &p, cfg); got != base {
				t.Errorf("%s/%s: key %s splits from the default %s", name, label, got, base)
			}
		}
	}
}

// warmHitAllocCeiling is the allocation budget of one warm hybrid
// lifetime request through the full handler stack (admission, tracing,
// registry hit, engine lookup, JSON encode) plus the test's own
// request and recorder, with no AccessLog: measured at 115/op on the
// production build, and held there. Re-deriving the design and config
// fingerprints on every hit cost about 120 more.
const warmHitAllocCeiling = 115

// TestWarmHitAllocCeiling drives Handler() with a warm no-override
// hybrid query and holds its allocations under the ceiling. The race
// detector's instrumentation adds allocations of its own, so the gate
// only runs on the production build.
func TestWarmHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := mustNew(Options{Stages: pipeline.NewCache(64)})
	h := s.Handler()
	const url = "/v1/lifetime?design=C1&method=hybrid&ppm=10"
	serve := func() int {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, url, nil))
		return rw.Code
	}
	if code := serve(); code != http.StatusOK {
		t.Fatalf("cold request = %d", code)
	}
	bad := 0
	allocs := testing.AllocsPerRun(200, func() {
		if serve() != http.StatusOK {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%d warm requests failed", bad)
	}
	t.Logf("warm hybrid hit: %.0f allocs/op", allocs)
	if allocs > warmHitAllocCeiling {
		t.Fatalf("warm hybrid hit allocates %.0f/op, ceiling %d", allocs, warmHitAllocCeiling)
	}
}
