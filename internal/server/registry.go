package server

import (
	"context"
	"sync"
	"time"

	"obdrel"
	"obdrel/internal/fault"
	"obdrel/internal/lru"
	"obdrel/internal/obs"
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
// number of requests without copying.
//
// Graceful degradation: alongside the primary LRU the registry keeps a
// last-good store — every successfully built analyzer, with its build
// time, in a second LRU that survives primary eviction. When a rebuild
// fails (including breaker fast-fails) and a last-good analyzer is
// younger than the serve-stale window, the registry serves it instead
// of erroring; the caller learns via GetResult.Stale and the response
// carries Warning/X-Staleness headers. Analyzers are immutable answers
// to a fixed (design, config) question — Eq. 18 queries against a
// slightly old characterization are exactly as correct as they were
// when it was built — so "stale" here only means "the failed rebuild
// was prompted by cache eviction, not changed inputs".
type Registry struct {
	build   BuildFunc
	metrics *Metrics
	cache   *pipeline.Cache

	staleMu  sync.Mutex
	stale    *lru.Cache[staleEntry]
	maxStale time.Duration
	now      func() time.Time
}

type staleEntry struct {
	an      *obdrel.Analyzer
	builtAt time.Time
}

// GetResult reports how a registry Get was served.
type GetResult struct {
	// Hit is true when the primary LRU held the analyzer.
	Hit bool
	// Stale is true when the fresh build failed and a last-good
	// analyzer was served instead; StaleAge is its age.
	Stale    bool
	StaleAge time.Duration
}

// Label renders the result for response payloads.
func (g GetResult) Label() string {
	switch {
	case g.Stale:
		return "stale"
	case g.Hit:
		return "hit"
	default:
		return "miss"
	}
}

// NewRegistry returns a registry holding at most capacity analyzers.
func NewRegistry(capacity int, build BuildFunc, m *Metrics) *Registry {
	r := &Registry{
		build:   build,
		metrics: m,
		cache:   pipeline.NewCache(capacity),
		stale:   lru.New[staleEntry](2 * capacity),
		now:     time.Now,
	}
	m.analyzersCached = r.Len
	return r
}

// SetMaxStale sets the serve-stale window (0 or negative disables).
func (r *Registry) SetMaxStale(d time.Duration) {
	r.staleMu.Lock()
	r.maxStale = d
	r.staleMu.Unlock()
}

// Cache exposes the underlying pipeline cache so the server can
// install retry/breaker policies.
func (r *Registry) Cache() *pipeline.Cache { return r.cache }

// Len reports the number of cached analyzers.
func (r *Registry) Len() int { return r.cache.Len(analyzerStage) }

// Stats returns the registry's own stage counters (hits, misses,
// builds, cancelled builds) for the metrics endpoint.
func (r *Registry) Stats() pipeline.StageStat { return r.cache.Stat(analyzerStage) }

// Get returns the analyzer for (design, config) stored under key,
// building it at most once per key regardless of concurrency. key must
// be obdrel.CacheKey(d, cfg); the caller supplies it because the
// server already holds it (see Server.registryKey) and deriving it
// again costs more than the lookup. When ctx expires the wait is
// abandoned AND — if no other request is waiting on the same key — the
// build's context is cancelled, so a 504 stops the stage computation
// it started instead of leaking it; coalesced waiters that are still
// alive retry with a fresh build rather than inheriting the
// cancellation. A failed build falls back to the last-good store (see
// the type comment); only genuine cancellations propagate unshielded.
func (r *Registry) Get(ctx context.Context, key string, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, GetResult, error) {
	return r.getKeyed(ctx, key, d.Name,
		func(bctx context.Context) (*obdrel.Analyzer, error) {
			return r.build(bctx, d, cfg)
		})
}

// GetTrace is Get for telemetry-replay analyzers: same LRU, same
// coalescing, same retry/breaker/serve-stale policies, keyed by the
// trace-extended cache key so distinct traces over one (design,
// config) are distinct analyzers while the substrate stages
// underneath still share the node's stage cache, stages. key must be
// obdrel.TraceCacheKeyFrom(obdrel.CacheKey(d, cfg), tr).
func (r *Registry) GetTrace(ctx context.Context, stages *pipeline.Cache, key string, d *obdrel.Design, cfg *obdrel.Config, tr obdrel.Trace) (*obdrel.Analyzer, GetResult, error) {
	return r.getKeyed(ctx, key, d.Name+" trace",
		func(bctx context.Context) (*obdrel.Analyzer, error) {
			return obdrel.NewTraceAnalyzerCtxIn(bctx, stages, d, cfg, tr)
		})
}

// getKeyed is the shared serve path behind Get and GetTrace.
func (r *Registry) getKeyed(ctx context.Context, key, name string, build func(context.Context) (*obdrel.Analyzer, error)) (*obdrel.Analyzer, GetResult, error) {
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
			r.recordGood(key, built)
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
	if err == nil {
		return an, GetResult{Hit: res.Hit}, nil
	}
	// Serve-stale: a failed rebuild with a recent last-good analyzer
	// degrades gracefully instead of erroring. Cancellations are the
	// caller leaving, not the build failing — never shield those.
	if fault.ClassOf(err) != fault.Cancelled && ctx.Err() == nil {
		if e, age, ok := r.lastGood(key); ok {
			r.metrics.ServeStale.Add(1)
			r.metrics.staleAgeNanos.Store(age.Nanoseconds())
			obs.ReqStatsFrom(ctx).RecordStale(age)
			return e.an, GetResult{Hit: true, Stale: true, StaleAge: age}, nil
		}
	}
	return nil, GetResult{}, err
}

// recordGood stores a freshly built analyzer in the last-good store.
func (r *Registry) recordGood(key string, an *obdrel.Analyzer) {
	r.staleMu.Lock()
	if r.maxStale > 0 {
		r.stale.Put(key, staleEntry{an: an, builtAt: r.now()})
	}
	r.staleMu.Unlock()
}

// lastGood returns the last-good analyzer for key if it is inside the
// serve-stale window.
func (r *Registry) lastGood(key string) (staleEntry, time.Duration, bool) {
	r.staleMu.Lock()
	defer r.staleMu.Unlock()
	if r.maxStale <= 0 {
		return staleEntry{}, 0, false
	}
	e, ok := r.stale.Get(key)
	if !ok {
		return staleEntry{}, 0, false
	}
	age := r.now().Sub(e.builtAt)
	if age > r.maxStale {
		r.stale.Remove(key)
		return staleEntry{}, 0, false
	}
	return e, age, true
}
