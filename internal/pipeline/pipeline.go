// Package pipeline is the stage-graph artifact store behind the
// analyzer: a per-stage LRU keyed by canonical fingerprints, with
// cancellable singleflight coalescing.
//
// The analysis flow is an explicit dataflow — floorplan → power map →
// thermal solve → covariance/PCA → BLOD moments → per-block Weibull
// parameters → chip assembly — and each stage's artifact depends on
// only a subset of the configuration. Caching at stage granularity is
// what lets a MaxVDD bisection rebuild only the voltage-dependent tail
// while every probe shares one PCA, one BLOD characterization and one
// covariance model, and what lets a Table IV/V sweep share the
// thermal solve across rows that only vary correlation parameters.
//
// Cancellation contract (the part plain singleflight gets wrong):
//
//   - Every build runs under its own context, cancelled when the LAST
//     interested waiter abandons the flight. A request that times out
//     therefore stops the work it started — unless another request is
//     still waiting on the same artifact, in which case the build
//     continues for them.
//   - A build that dies of cancellation is never inserted into the
//     LRU and never delivered to a waiter: a late joiner that is still
//     alive retries with a fresh flight instead of receiving someone
//     else's context error ("cancelled partial results are not
//     handed to coalesced waiters").
//
// Failure handling: a build failure is wrapped with stage +
// fingerprint provenance (fault.StageError), classified by
// internal/fault's taxonomy, delivered to every waiter of its flight
// and never cached. A build that resolves its inputs through the
// cache and fails on one returns that input's StageError: it passes
// through the consumer's flight unwrapped, so the error names the
// stage whose own build failed, and only that stage counts a failure.
// A build is a pure function of its key, so a
// failing key fails the same way on every attempt: the next Get runs
// one fresh build, which costs no more than the failing stage itself
// because the stages under it stay cached. Builds that panic are
// contained into Permanent errors instead of killing the process, and
// every build passes the pipeline.build fault-injection point.
//
// The zero-cost escape hatch: Get with a nil *Cache runs the build
// inline with the caller's context — no cache, no coalescing — which
// keeps cold-path behaviour exactly equal to the uncached code.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"obdrel/internal/fault"
	"obdrel/internal/lru"
	"obdrel/internal/obs"
)

// Cache stores stage artifacts: one LRU and one stats block per stage
// name, plus an in-flight table coalescing concurrent builds of the
// same (stage, key).
type Cache struct {
	mu         sync.Mutex
	defaultCap int
	stages     map[string]*stageState
	flights    map[flightKey]*flight
	tiers      Tiers
}

type stageState struct {
	lru   *lru.Cache[*entry]
	stats stats
	// bytes is the retained size of the LRU's entries (see
	// entry.size), guarded by Cache.mu.
	bytes int64
}

// entry is one LRU value: the live artifact and, once Sealed has
// served it, the container it encoded. Both fields are guarded by
// Cache.mu. A put replaces the whole entry, so replacement and
// eviction drop an artifact and its container together, and Sealed
// recognises a replaced value by the entry pointer.
type entry struct {
	v      any
	sealed []byte
}

// StageByteBudget bounds the bytes one stage's LRU retains, alongside
// the entry-count capacity. It counts artifacts that report their size
// (SizeBytes() int64) and every container Sealed keeps for serving
// peers. A PCA at the paper's 25×25 grid is about 0.8 MB, and 1.6 MB
// while its container is kept, so the budget holds about ten PCAs, or
// about five with their containers. A stage over the budget drops kept
// containers first, least recently used first, since re-encoding one
// costs a fraction of rebuilding its artifact; only then does it evict
// entries. The newest entry is always kept, even when it alone exceeds
// the budget.
const StageByteBudget = 8 << 20

// size returns an entry's charge against the byte budget: the
// artifact's SizeBytes when it reports one, plus its kept container.
func (e *entry) size() int64 {
	n := int64(len(e.sealed))
	if s, ok := e.v.(interface{ SizeBytes() int64 }); ok {
		n += s.SizeBytes()
	}
	return n
}

// put inserts (or replaces) an artifact as most recently used, in a
// new entry with no container, then brings the stage within its entry
// capacity (evicting the least recently used entry) and
// StageByteBudget (see evict). Caller holds Cache.mu.
func (st *stageState) put(key string, v any) {
	e := &entry{v: v}
	if old, ok := st.lru.Get(key); ok {
		st.bytes -= old.size()
	}
	if _, evicted, ok := st.lru.Put(key, e); ok {
		st.bytes -= evicted.size()
	}
	st.bytes += e.size()
	st.evict()
}

// evict brings the stage within StageByteBudget: it drops kept
// containers, least recently used first, then removes
// least-recently-used entries, always keeping the newest. Caller holds
// Cache.mu.
func (st *stageState) evict() {
	if st.bytes <= StageByteBudget {
		return
	}
	st.lru.Oldest(func(_ string, e *entry) bool {
		st.bytes -= int64(len(e.sealed))
		e.sealed = nil
		return st.bytes > StageByteBudget
	})
	for st.bytes > StageByteBudget && st.lru.Len() > 1 {
		_, evicted, _ := st.lru.RemoveOldest()
		st.bytes -= evicted.size()
	}
}

// get returns the live artifact for key, marking it most recently
// used. Caller holds Cache.mu.
func (st *stageState) get(key string) (any, bool) {
	if e, ok := st.lru.Get(key); ok {
		return e.v, true
	}
	return nil, false
}

type stats struct {
	hits, misses, builds, cancels, failures atomic.Int64
	buildNanos                              atomic.Int64
	// Artifact-tier counters (tiers.go): disk loads served/rejected,
	// sealed artifacts spilled (and spill failures), peer cache-fills
	// served/failed.
	diskHits, diskRejects atomic.Int64
	spills, spillFails    atomic.Int64
	peerHits, peerErrors  atomic.Int64
}

type flightKey struct{ stage, key string }

type flight struct {
	done     chan struct{}
	cancel   context.CancelFunc
	waiters  int // guarded by Cache.mu
	val      any
	err      error
	canceled bool   // build died because every waiter left
	durNs    int64  // build wall time, written before done closes
	source   string // tier that satisfied the flight (disk|peer|built)
}

// NewCache returns an empty cache holding at most defaultCap artifacts
// per stage (minimum 1).
func NewCache(defaultCap int) *Cache {
	if defaultCap < 1 {
		defaultCap = 1
	}
	return &Cache{
		defaultCap: defaultCap,
		stages:     map[string]*stageState{},
		flights:    map[flightKey]*flight{},
	}
}

// SetDefaultCapacity overrides the per-stage default capacity for
// stages created after the call.
func (c *Cache) SetDefaultCapacity(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.defaultCap = capacity
}

// state returns (creating if needed) the stage's LRU+stats. Caller
// holds c.mu.
func (c *Cache) state(stage string) *stageState {
	st, ok := c.stages[stage]
	if !ok {
		st = &stageState{lru: lru.New[*entry](c.defaultCap)}
		c.stages[stage] = st
	}
	return st
}

// Artifact provenance: which tier of the hierarchy satisfied a Get.
const (
	// SourceMem: served from the in-process LRU.
	SourceMem = "mem"
	// SourceDisk: decoded from the disk spill tier.
	SourceDisk = "disk"
	// SourcePeer: cache-filled from a cluster peer.
	SourcePeer = "peer"
	// SourceBuilt: computed by running the stage build.
	SourceBuilt = "built"
)

// Result reports how a Get was served.
type Result struct {
	// Hit is true when the artifact came from the LRU.
	Hit bool
	// Coalesced is true when the caller joined a build another caller
	// had already started.
	Coalesced bool
	// Source is the artifact's provenance (SourceMem, SourceDisk,
	// SourcePeer or SourceBuilt); empty on error and for nil-cache
	// inline builds.
	Source string

	// buildNs is the completed flight's build wall time, carried out
	// of wait so the per-round span can report it.
	buildNs int64
}

// errFlightCanceled is the internal signal that a joined flight died
// of cancellation; Get retries instead of surfacing it.
var errFlightCanceled = errors.New("pipeline: flight canceled")

// Get returns the artifact for (stage, key), building it with `build`
// on a miss. Concurrent Gets for the same (stage, key) coalesce into
// one build; the build's context is cancelled when its last waiter's
// context expires. A nil cache runs build(ctx) inline.
func Get[O any](ctx context.Context, c *Cache, stage, key string, build func(context.Context) (O, error)) (O, Result, error) {
	var zero O
	if c == nil {
		v, err := build(ctx)
		return v, Result{}, err
	}
	res := Result{}
	for {
		if err := ctx.Err(); err != nil {
			return zero, res, err
		}
		// One span per lookup round: a cancelled-flight retry gets a
		// fresh span, so the trace shows every round it took. The
		// Join variant keeps the untraced path concat- and alloc-free.
		sctx, sp := obs.StartSpanJoin(ctx, "stage:", stage)
		v, r, err := c.getOnce(sctx, stage, key, func(bctx context.Context) (any, error) {
			return build(bctx)
		})
		res.Hit = r.Hit
		res.Coalesced = res.Coalesced || r.Coalesced
		res.Source = r.Source
		if sp != nil {
			switch {
			case errors.Is(err, errFlightCanceled):
				sp.SetAttr("cache", "cancelled")
			case r.Hit:
				sp.SetAttr("cache", "hit")
			case r.Coalesced:
				sp.SetAttr("cache", "coalesced")
			default:
				sp.SetAttr("cache", "miss")
			}
			if r.Source != "" {
				// Provenance lands in every round's span, so
				// ?explain=1 shows exactly which tier answered.
				sp.SetAttr("source", r.Source)
			}
			if r.buildNs > 0 {
				sp.SetAttr("build_ms", float64(r.buildNs)/1e6)
			}
			if err != nil && !errors.Is(err, errFlightCanceled) {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}
		if errors.Is(err, errFlightCanceled) {
			// The build we were waiting on was abandoned by everyone
			// else and cancelled before we could use it; we are still
			// alive, so start over (the next round creates a fresh
			// flight with our own context attached).
			continue
		}
		if err != nil {
			return zero, res, err
		}
		if r.Source != "" {
			// Each waiter records its own top-level round here; the
			// build's nested rounds were already recorded through the
			// flight context, which carries the initiator's collector.
			obs.ReqStatsFrom(ctx).RecordStage(stage, r.Source, r.buildNs)
		}
		out, ok := v.(O)
		if !ok {
			return zero, res, errors.New("pipeline: stage " + stage + " cached an artifact of the wrong type")
		}
		return out, res, nil
	}
}

// getOnce performs one lookup-or-flight round.
func (c *Cache) getOnce(ctx context.Context, stage, key string, build func(context.Context) (any, error)) (any, Result, error) {
	fk := flightKey{stage, key}
	c.mu.Lock()
	st := c.state(stage)
	if v, ok := st.get(key); ok {
		st.stats.hits.Add(1)
		c.mu.Unlock()
		return v, Result{Hit: true, Source: SourceMem}, nil
	}
	st.stats.misses.Add(1)
	if f, ok := c.flights[fk]; ok {
		f.waiters++
		c.mu.Unlock()
		return c.wait(ctx, f, Result{Coalesced: true})
	}
	tiers := c.tiers
	// The flight's context is detached from the initiator's deadline
	// (the last-waiter-cancels contract governs its lifetime) but
	// keeps the initiator's span — so build-internal spans land in the
	// trace of whoever caused the build — and the initiator's
	// fault-injection rules, so X-Fault faults reach detached builds.
	base := fault.Carry(obs.ContextWithSpan(context.Background(), obs.FromContext(ctx)), ctx)
	// The initiator's cost collector rides into the flight too: the
	// nested stage rounds a build resolves (peer fills, disk loads)
	// belong to the request that caused the build — same attribution
	// rule as the span above. Coalesced late joiners record only their
	// own top-level round, which is all they observed.
	base = obs.CarryReqStats(base, ctx)
	bctx, cancel := context.WithCancel(base)
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.flights[fk] = f
	c.mu.Unlock()

	go func() {
		start := time.Now()
		v, source, err := c.resolveFlight(bctx, stage, key, build, st, tiers)
		durNs := time.Since(start).Nanoseconds()
		canceled := bctx.Err() != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		// A build that failed on an input it pulled returns that
		// input's StageError: it passes through unwrapped, and only
		// the input's own flight counts the failure.
		var pulled *fault.StageError
		failed := err != nil && !canceled && fault.ClassOf(err) != fault.Cancelled
		if failed && errors.As(err, &pulled) {
			failed = false
		} else if failed {
			err = &fault.StageError{Stage: stage, Fingerprint: key, Err: err}
		}
		c.mu.Lock()
		delete(c.flights, fk)
		switch {
		case err == nil:
			st.put(key, v)
			if source == SourceBuilt {
				// Tier loads are not builds: the follower-builds==0
				// cluster gate and the build-seconds metric both count
				// only real stage computations.
				st.stats.builds.Add(1)
				st.stats.buildNanos.Add(durNs)
			}
		case failed:
			st.stats.failures.Add(1)
		case canceled || fault.ClassOf(err) == fault.Cancelled:
			st.stats.cancels.Add(1)
		}
		c.mu.Unlock()
		f.val, f.err, f.canceled, f.durNs, f.source = v, err, canceled, durNs, source
		close(f.done)
		cancel()
	}()
	return c.wait(ctx, f, Result{})
}

// buildProtected runs the build, converting panics into
// Permanent errors (an injected — or real — panic in a stage build
// must not take the process down) and giving armed fault rules their
// pipeline.build evaluation, labelled "stage key" so rules can match
// either.
func buildProtected(bctx context.Context, stage, key string, build func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("pipeline: stage %s build panicked: %v", stage, p)
		}
	}()
	if ferr := fault.InjectLabeled(bctx, "pipeline.build", stage+" "+key); ferr != nil {
		return nil, ferr
	}
	return build(bctx)
}

// wait blocks until the flight completes or the waiter's own context
// expires; the last waiter to leave cancels the build.
func (c *Cache) wait(ctx context.Context, f *flight, res Result) (any, Result, error) {
	select {
	case <-f.done:
		if f.canceled {
			return nil, res, errFlightCanceled
		}
		if f.err == nil {
			res.buildNs = f.durNs
			res.Source = f.source
		}
		return f.val, res, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		c.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, res, ctx.Err()
	}
}

// StageStat is one stage's counters at a point in time.
type StageStat struct {
	Stage string
	// Hits and Misses count LRU lookups; Builds successful artifact
	// constructions; Cancels builds abandoned by every waiter; Failures
	// flights that ended in any other error, which are never cached.
	Hits, Misses, Builds, Cancels, Failures int64
	// DiskHits and DiskRejects count disk-tier loads served and
	// corrupt files rejected (and deleted for rebuild); Spills and
	// SpillFails sealed artifacts written to the disk tier and write
	// failures; PeerHits and PeerErrors peer cache-fills served and
	// fetches that failed or returned a corrupt artifact.
	DiskHits, DiskRejects, Spills, SpillFails, PeerHits, PeerErrors int64
	// BuildSeconds is the cumulative wall time of successful builds.
	BuildSeconds float64
	// Entries is the stage's current LRU occupancy; Bytes the
	// retained size of its sized artifacts plus the containers Sealed
	// keeps for serving peers (see StageByteBudget).
	Entries int
	Bytes   int64
}

// Snapshot returns every stage's counters, sorted by stage name.
func (c *Cache) Snapshot() []StageStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StageStat, 0, len(c.stages))
	for name, st := range c.stages {
		out = append(out, statOf(name, st))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// statOf snapshots one stage's counters. Caller holds c.mu (for the
// LRU length; the counters themselves are atomics).
func statOf(name string, st *stageState) StageStat {
	return StageStat{
		Stage:        name,
		Hits:         st.stats.hits.Load(),
		Misses:       st.stats.misses.Load(),
		Builds:       st.stats.builds.Load(),
		Cancels:      st.stats.cancels.Load(),
		Failures:     st.stats.failures.Load(),
		DiskHits:     st.stats.diskHits.Load(),
		DiskRejects:  st.stats.diskRejects.Load(),
		Spills:       st.stats.spills.Load(),
		SpillFails:   st.stats.spillFails.Load(),
		PeerHits:     st.stats.peerHits.Load(),
		PeerErrors:   st.stats.peerErrors.Load(),
		BuildSeconds: float64(st.stats.buildNanos.Load()) / 1e9,
		Entries:      st.lru.Len(),
		Bytes:        st.bytes,
	}
}

// Stat returns one stage's counters (zero-valued if the stage has
// never been touched).
func (c *Cache) Stat(stage string) StageStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stages[stage]
	if !ok {
		return StageStat{Stage: stage}
	}
	return statOf(stage, st)
}

// Len returns one stage's current LRU occupancy.
func (c *Cache) Len(stage string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.stages[stage]; ok {
		return st.lru.Len()
	}
	return 0
}
