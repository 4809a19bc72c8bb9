package server

import (
	"context"
	"time"

	"obdrel"
	"obdrel/internal/fault"
	"obdrel/internal/pipeline"
)

// BuildFunc constructs the plain analyzer for a design/config pair
// under a context that cancels the build. Production uses
// obdrel.NewAnalyzerCtxIn over the node's stage cache; tests inject
// counters and stalls. It builds plain (design, config) analyzers only:
// telemetry-replay analyzers (GetTrace) always build with
// obdrel.NewTraceAnalyzerCtxIn in the node's stage cache.
type BuildFunc func(context.Context, *obdrel.Design, *obdrel.Config) (*obdrel.Analyzer, error)

// analyzerStage is the registry's stage name inside its pipeline cache:
// assembled Analyzers keyed by the canonical obdrel.CacheKey. The
// stage-level artifacts underneath (thermal, PCA, BLOD, …) live in the
// node's stage cache (Options.Stages), so even a registry miss reuses
// every substrate stage whose inputs did not change.
const analyzerStage = "analyzer"

// Registry is the serving layer's analyzer cache: a pipeline stage
// holding immutable Analyzers keyed by obdrel.CacheKey(design, config),
// with cancellable singleflight coalescing so N concurrent requests for
// the same uncached configuration trigger exactly one characterization
// — and so a request that times out cancels the build it started,
// unless another request is still waiting on it.
//
// Analyzers are safe for concurrent queries and engines are built
// lazily inside them, so the registry hands the same instance to any
// number of requests without copying. A failed build is not cached:
// it reaches every waiter of its flight, and the next request for the
// key builds again. The stages under a failing analyzer stay cached,
// so that rebuild re-runs only the stage that failed.
type Registry struct {
	build   BuildFunc
	metrics *Metrics
	cache   *pipeline.Cache
}

// cacheLabel renders a registry Get's hit flag for response payloads.
func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// NewRegistry returns a registry holding at most capacity analyzers.
func NewRegistry(capacity int, build BuildFunc, m *Metrics) *Registry {
	r := &Registry{
		build:   build,
		metrics: m,
		cache:   pipeline.NewCache(capacity),
	}
	m.analyzersCached = r.Len
	return r
}

// Len reports the number of cached analyzers.
func (r *Registry) Len() int { return r.cache.Len(analyzerStage) }

// Stats returns the registry's own stage counters (hits, misses,
// builds, cancelled builds) for the metrics endpoint.
func (r *Registry) Stats() pipeline.StageStat { return r.cache.Stat(analyzerStage) }

// Get returns the analyzer for (design, config) stored under key, and
// whether the LRU held it, building it at most once per key regardless
// of concurrency. key must
// be obdrel.CacheKey(d, cfg); the caller supplies it because the
// server already holds it (see Server.registryKey) and deriving it
// again costs more than the lookup. When ctx expires the wait is
// abandoned AND — if no other request is waiting on the same key — the
// build's context is cancelled, so a 504 stops the stage computation
// it started instead of leaking it; coalesced waiters that are still
// alive retry with a fresh build rather than inheriting the
// cancellation.
func (r *Registry) Get(ctx context.Context, key string, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, bool, error) {
	return r.getKeyed(ctx, key, d.Name,
		func(bctx context.Context) (*obdrel.Analyzer, error) {
			return r.build(bctx, d, cfg)
		})
}

// GetTrace is Get for telemetry-replay analyzers: same LRU, same
// coalescing, keyed by the trace-extended cache key so distinct traces
// over one (design, config) are distinct analyzers while the substrate
// stages underneath still share the node's stage cache, stages. key
// must be obdrel.TraceCacheKeyFrom(obdrel.CacheKey(d, cfg), tr).
func (r *Registry) GetTrace(ctx context.Context, stages *pipeline.Cache, key string, d *obdrel.Design, cfg *obdrel.Config, tr obdrel.Trace) (*obdrel.Analyzer, bool, error) {
	return r.getKeyed(ctx, key, d.Name+" trace",
		func(bctx context.Context) (*obdrel.Analyzer, error) {
			return obdrel.NewTraceAnalyzerCtxIn(bctx, stages, d, cfg, tr)
		})
}

// getKeyed is the shared serve path behind Get and GetTrace.
func (r *Registry) getKeyed(ctx context.Context, key, name string, build func(context.Context) (*obdrel.Analyzer, error)) (*obdrel.Analyzer, bool, error) {
	an, res, err := pipeline.Get(ctx, r.cache, analyzerStage, key,
		func(bctx context.Context) (*obdrel.Analyzer, error) {
			if ferr := fault.InjectLabeled(bctx, "registry.build", name+" "+key); ferr != nil {
				return nil, ferr
			}
			start := time.Now()
			built, err := build(bctx)
			if err != nil {
				return nil, err
			}
			r.metrics.ObserveBuild(time.Since(start))
			return built, nil
		})
	if res.Hit {
		r.metrics.CacheHits.Add(1)
	} else {
		r.metrics.CacheMisses.Add(1)
	}
	if res.Coalesced {
		r.metrics.Coalesced.Add(1)
	}
	return an, res.Hit, err
}
