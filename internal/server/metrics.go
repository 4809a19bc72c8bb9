package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"obdrel/internal/fault"
	"obdrel/internal/obs"
	"obdrel/internal/pipeline"
)

// Metrics aggregates the service counters exposed on /metrics in
// Prometheus text format, implemented on sync/atomic so the hot path
// never contends on the exposition lock.
type Metrics struct {
	start time.Time

	// InFlight is the number of requests currently being served.
	InFlight atomic.Int64
	// CacheHits/CacheMisses count analyzer-registry lookups;
	// Coalesced counts requests that joined an in-flight build
	// instead of starting their own.
	CacheHits, CacheMisses, Coalesced atomic.Int64
	// Builds counts analyzer (engine substrate) constructions;
	// BuildNanos accumulates their wall time.
	Builds     atomic.Int64
	BuildNanos atomic.Int64
	// Throttled counts requests rejected 429 by the concurrency
	// limiter; TimedOut counts 504s from the per-request deadline.
	Throttled, TimedOut atomic.Int64
	// AdmissionRejected counts deadline-aware 503 rejections (predicted
	// queue wait exceeding the request deadline, plus queue-wait
	// expiries, counted separately in QueueTimeouts). DrainRejected
	// counts 503s issued while draining.
	AdmissionRejected, QueueTimeouts, DrainRejected atomic.Int64
	// BatchRequests counts /v1/batch streams; BatchItemsOK and
	// BatchItemsErr the per-item outcomes inside them; BatchGroups the
	// distinct substrate groups prepared; BatchReused the items that
	// rode an already-prepared group (the amortization the planner
	// exists for); BatchSharedEvals the duplicate items answered from
	// another item's evaluation; BatchStreamBytes the JSONL bytes
	// written.
	BatchRequests, BatchItemsOK, BatchItemsErr atomic.Int64
	BatchGroups, BatchReused, BatchStreamBytes atomic.Int64
	BatchSharedEvals                           atomic.Int64
	// batchErrClass counts per-item batch errors by fault class
	// (indexed by fault.Class, whose last class is Cancelled).
	batchErrClass [fault.Cancelled + 1]atomic.Int64

	// queueDepth reports requests currently waiting for an execution
	// slot; draining reports the shutdown gate (both gauges, wired by
	// the server).
	queueDepth func() int64
	draining   func() bool

	// analyzersCached reports the registry's current size (gauge).
	analyzersCached func() int
	// stageStats reports per-stage cache counters (library stage graph
	// plus the registry's analyzer stage), exposed as labeled families.
	stageStats func() []pipeline.StageStat
	// artifact reports the node-level artifact counters (cluster
	// fetches, peer serves, warm sweep), wired by the server.
	artifact func() ArtifactStats
	// slo reports the burn-rate engine's objectives (wired by the
	// server; empty when no -slo objectives are configured).
	slo func() []obs.ObjectiveReport

	// knownRoutes is the closed set of route label values. Routes are
	// registered once at handler construction; anything else (scanner
	// noise, typos) is folded into "other" so the label maps below
	// cannot grow without bound under hostile traffic.
	knownRoutes map[string]bool

	mu       sync.Mutex
	requests map[string]map[int]int64  // route → status code → count
	latency  map[string]*obs.Histogram // route → histogram
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:           time.Now(),
		requests:        map[string]map[int]int64{},
		latency:         map[string]*obs.Histogram{},
		analyzersCached: func() int { return 0 },
		stageStats:      func() []pipeline.StageStat { return nil },
		knownRoutes:     map[string]bool{},
		queueDepth:      func() int64 { return 0 },
		draining:        func() bool { return false },
		artifact:        func() ArtifactStats { return ArtifactStats{} },
		slo:             func() []obs.ObjectiveReport { return nil },
	}
}

// RouteSnapshots copies every route's latency histogram (mergeable
// across nodes — see obs.Histogram.MergeSnapshot) plus the per-route
// request totals summed over status codes. This is the node's share of
// the fleet aggregation behind /v1/cluster/status.
func (m *Metrics) RouteSnapshots() (map[string]obs.HistogramSnapshot, map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hists := make(map[string]obs.HistogramSnapshot, len(m.latency))
	for r, h := range m.latency {
		hists[r] = h.Snapshot()
	}
	reqs := make(map[string]int64, len(m.requests))
	for r, byCode := range m.requests {
		var total int64
		for _, n := range byCode {
			total += n
		}
		reqs[r] = total
	}
	return hists, reqs
}

// ArtifactStats is the node-level artifact telemetry behind the
// obdreld_artifact_* families: the per-stage tier counters (disk hits,
// spills, peer fills) live in pipeline.StageStat; these are the
// counters that belong to the node, not to a stage.
type ArtifactStats struct {
	// FetchAttempts counts cluster artifact fetches started by this
	// node; FetchFills those a peer satisfied; FetchErrors per-peer
	// request failures (a fetch across N dead candidates counts N).
	FetchAttempts, FetchFills, FetchErrors int64
	// PeerServes counts sealed artifacts this node served on
	// /v1/artifact.
	PeerServes int64
	// WarmLoaded counts artifacts the anti-entropy sweep brought into
	// memory; Warming is true while the sweep is still running.
	WarmLoaded int64
	Warming    bool

	// FetchHedged counts fetches that raced a second candidate after
	// the hedge delay; FetchHedgeWins those where the hedge-launched
	// request delivered the winning fill.
	FetchHedged, FetchHedgeWins int64

	// Membership state (cluster mode). Epoch is this node's membership
	// view version, zero outside cluster mode and at least 1 in it;
	// Members* the directory's per-state counts including self;
	// HeartbeatErrors failed gossip exchanges.
	Epoch                                      uint64
	MembersActive, MembersSuspect, MembersDead int
	HeartbeatErrors                            int64
}

// RegisterRoute admits a route as a metrics label value. Call once per
// routed path at handler construction, before traffic arrives.
func (m *Metrics) RegisterRoute(route string) {
	m.mu.Lock()
	m.knownRoutes[route] = true
	m.mu.Unlock()
}

// ObserveRequest records one finished request. Routes never registered
// with RegisterRoute are recorded under the label "other".
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.mu.Lock()
	if !m.knownRoutes[route] {
		route = "other"
	}
	byCode := m.requests[route]
	if byCode == nil {
		byCode = map[int]int64{}
		m.requests[route] = byCode
	}
	byCode[code]++
	h := m.latency[route]
	if h == nil {
		h = &obs.Histogram{}
		m.latency[route] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// ObserveBatchItem records one batch item's outcome: ok increments
// the success counter, an error increments the failure counter and
// its fault-class bucket.
func (m *Metrics) ObserveBatchItem(err error) {
	if err == nil {
		m.BatchItemsOK.Add(1)
		return
	}
	m.BatchItemsErr.Add(1)
	if cls := fault.ClassOf(err); int(cls) >= 0 && int(cls) < len(m.batchErrClass) {
		m.batchErrClass[cls].Add(1)
	}
}

// ObserveBuild records one analyzer construction.
func (m *Metrics) ObserveBuild(d time.Duration) {
	m.Builds.Add(1)
	m.BuildNanos.Add(d.Nanoseconds())
}

// Uptime reports time since the metrics set was created.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// WriteTo renders the Prometheus text exposition format. Output is
// deterministically ordered so it diffs cleanly and tests can grep.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	m.mu.Lock()
	routes := make([]string, 0, len(m.requests))
	for r := range m.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	snapshot := make(map[string]map[int]int64, len(m.requests))
	for r, byCode := range m.requests {
		cp := make(map[int]int64, len(byCode))
		for c, n := range byCode {
			cp[c] = n
		}
		snapshot[r] = cp
	}
	hists := make(map[string]*obs.Histogram, len(m.latency))
	for r, h := range m.latency {
		hists[r] = h
	}
	m.mu.Unlock()

	fmt.Fprintf(cw, "# HELP obdreld_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(cw, "# TYPE obdreld_requests_total counter\n")
	for _, r := range routes {
		codes := make([]int, 0, len(snapshot[r]))
		for c := range snapshot[r] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(cw, "obdreld_requests_total{route=%q,code=\"%d\"} %d\n", r, c, snapshot[r][c])
		}
	}

	fmt.Fprintf(cw, "# HELP obdreld_request_seconds Request latency, by route.\n")
	fmt.Fprintf(cw, "# TYPE obdreld_request_seconds histogram\n")
	for _, r := range routes {
		h := hists[r]
		if h == nil {
			continue
		}
		counts := h.BucketCounts()
		cum := int64(0)
		for i, ub := range obs.LatencyBuckets {
			cum += counts[i]
			fmt.Fprintf(cw, "obdreld_request_seconds_bucket{route=%q,le=\"%g\"} %d\n", r, ub, cum)
		}
		cum += counts[len(obs.LatencyBuckets)]
		fmt.Fprintf(cw, "obdreld_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r, cum)
		fmt.Fprintf(cw, "obdreld_request_seconds_sum{route=%q} %g\n", r, h.Sum().Seconds())
		fmt.Fprintf(cw, "obdreld_request_seconds_count{route=%q} %d\n", r, h.Count())
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("obdreld_analyzer_cache_hits_total", "Registry lookups served from the LRU.", m.CacheHits.Load())
	counter("obdreld_analyzer_cache_misses_total", "Registry lookups that required a build.", m.CacheMisses.Load())
	counter("obdreld_coalesced_requests_total", "Requests that joined an in-flight analyzer build.", m.Coalesced.Load())
	counter("obdreld_throttled_requests_total", "Requests rejected 429 by the concurrency limiter.", m.Throttled.Load())
	counter("obdreld_timedout_requests_total", "Requests that hit the per-request deadline.", m.TimedOut.Load())
	counter("obdreld_engine_builds_total", "Analyzer (engine substrate) constructions.", m.Builds.Load())
	counter("obdreld_admission_rejected_total", "Requests rejected 503 by the deadline-aware admission controller.", m.AdmissionRejected.Load())
	counter("obdreld_queue_timeouts_total", "Admitted queue waits that expired before a slot freed.", m.QueueTimeouts.Load())
	counter("obdreld_drain_rejected_total", "Requests rejected 503 during graceful shutdown.", m.DrainRejected.Load())
	counter("obdreld_batch_requests_total", "Batch streams served on /v1/batch.", m.BatchRequests.Load())
	fmt.Fprintf(cw, "# HELP obdreld_batch_items_total Batch items evaluated, by per-item outcome.\n")
	fmt.Fprintf(cw, "# TYPE obdreld_batch_items_total counter\n")
	fmt.Fprintf(cw, "obdreld_batch_items_total{status=\"ok\"} %d\n", m.BatchItemsOK.Load())
	fmt.Fprintf(cw, "obdreld_batch_items_total{status=\"error\"} %d\n", m.BatchItemsErr.Load())
	counter("obdreld_batch_groups_total", "Distinct substrate groups prepared by the batch planner.", m.BatchGroups.Load())
	counter("obdreld_batch_substrate_reused_items_total", "Batch items that reused an already-prepared substrate group.", m.BatchReused.Load())
	counter("obdreld_batch_shared_evals_total", "Duplicate batch items answered from another item's evaluation.", m.BatchSharedEvals.Load())
	counter("obdreld_batch_stream_bytes_total", "JSONL bytes written to batch response streams.", m.BatchStreamBytes.Load())
	fmt.Fprintf(cw, "# HELP obdreld_batch_item_errors_total Failed batch items, by fault class.\n")
	fmt.Fprintf(cw, "# TYPE obdreld_batch_item_errors_total counter\n")
	for i := range m.batchErrClass {
		fmt.Fprintf(cw, "obdreld_batch_item_errors_total{class=%q} %d\n", fault.Class(i).String(), m.batchErrClass[i].Load())
	}
	batchItems := m.BatchItemsOK.Load() + m.BatchItemsErr.Load()
	reuseRatio := 0.0
	if batchItems > 0 {
		reuseRatio = float64(m.BatchReused.Load()) / float64(batchItems)
	}
	gauge("obdreld_batch_substrate_reuse_ratio", "Fraction of batch items that reused a prepared substrate group.", reuseRatio)
	counter("obdreld_fault_injected_total", "Faults fired by the injection framework (zero unless armed).", fault.InjectedTotal())
	fmt.Fprintf(cw, "# HELP obdreld_engine_build_seconds_total Wall time constructing analyzers (the construction stages; hybrid tables build lazily on first hybrid use and count under obdreld_stage_build_seconds_total stage hybrid).\n")
	fmt.Fprintf(cw, "# TYPE obdreld_engine_build_seconds_total counter\n")
	fmt.Fprintf(cw, "obdreld_engine_build_seconds_total %g\n", float64(m.BuildNanos.Load())/1e9)
	gauge("obdreld_in_flight_requests", "Requests currently being served.", float64(m.InFlight.Load()))
	gauge("obdreld_analyzers_cached", "Analyzers resident in the registry.", float64(m.analyzersCached()))
	gauge("obdreld_uptime_seconds", "Seconds since the server started.", m.Uptime().Seconds())
	gauge("obdreld_queue_depth", "Requests waiting for an execution slot.", float64(m.queueDepth()))
	drainGauge := 0.0
	if m.draining() {
		drainGauge = 1
	}
	gauge("obdreld_draining", "1 while the server is draining for shutdown.", drainGauge)

	// Go runtime health: enough to spot goroutine leaks, heap growth,
	// and GC pressure from a dashboard without attaching pprof.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("obdreld_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	gauge("obdreld_go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	gauge("obdreld_go_heap_sys_bytes", "Heap memory obtained from the OS.", float64(ms.HeapSys))
	counter("obdreld_go_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
	fmt.Fprintf(cw, "# HELP obdreld_go_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(cw, "# TYPE obdreld_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(cw, "obdreld_go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	gauge("obdreld_go_gomaxprocs", "GOMAXPROCS at scrape time.", float64(runtime.GOMAXPROCS(0)))

	stages := m.stageStats()
	sort.Slice(stages, func(i, j int) bool { return stages[i].Stage < stages[j].Stage })
	labeled := func(name, help, typ string, value func(pipeline.StageStat) string) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, s := range stages {
			fmt.Fprintf(cw, "%s{stage=%q} %s\n", name, s.Stage, value(s))
		}
	}
	labeled("obdreld_stage_cache_hits_total", "Stage-cache lookups served from the LRU, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Hits) })
	labeled("obdreld_stage_cache_misses_total", "Stage-cache lookups that required (or joined) a build, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Misses) })
	labeled("obdreld_stage_builds_total", "Successful stage-artifact constructions, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Builds) })
	labeled("obdreld_stage_build_failures_total", "Stage builds that ended in an error other than cancellation, by stage; a failed build is never cached.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Failures) })
	labeled("obdreld_stage_cancelled_builds_total", "Stage builds cancelled because every waiter abandoned them, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Cancels) })
	labeled("obdreld_stage_build_seconds_total", "Wall time of successful stage builds, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%g", s.BuildSeconds) })
	labeled("obdreld_stage_entries", "Artifacts resident per stage LRU.", "gauge",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Entries) })
	labeled("obdreld_stage_bytes", "Retained bytes of sized artifacts per stage LRU (bounded by the per-stage byte budget).", "gauge",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Bytes) })

	// Artifact tiers: per-stage disk/peer counters, then the
	// node-level cluster fetch / peer serve / warm-sweep counters.
	labeled("obdreld_artifact_disk_hits_total", "Stage artifacts served from the disk tier, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.DiskHits) })
	labeled("obdreld_artifact_disk_rejects_total", "Disk artifacts rejected (corrupt, truncated, or future-version), by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.DiskRejects) })
	labeled("obdreld_artifact_spills_total", "Stage artifacts spilled to the disk tier, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.Spills) })
	labeled("obdreld_artifact_spill_failures_total", "Failed artifact spills (encode or write errors), by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.SpillFails) })
	labeled("obdreld_artifact_peer_hits_total", "Stage artifacts cache-filled from a cluster peer, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.PeerHits) })
	labeled("obdreld_artifact_peer_errors_total", "Peer fetches that degraded to a local build, by stage.", "counter",
		func(s pipeline.StageStat) string { return fmt.Sprintf("%d", s.PeerErrors) })
	a := m.artifact()
	counter("obdreld_artifact_fetch_attempts_total", "Cluster artifact fetches started by this node.", a.FetchAttempts)
	counter("obdreld_artifact_fetch_fills_total", "Cluster artifact fetches satisfied by a peer.", a.FetchFills)
	counter("obdreld_artifact_fetch_errors_total", "Per-peer artifact request failures.", a.FetchErrors)
	counter("obdreld_artifact_peer_serves_total", "Sealed artifacts served to peers on /v1/artifact.", a.PeerServes)
	counter("obdreld_artifact_warm_loaded_total", "Artifacts loaded into memory by the startup warm sweep.", a.WarmLoaded)
	counter("obdreld_artifact_fetch_hedged_total", "Peer fetches that raced a second candidate after the hedge delay.", a.FetchHedged)
	counter("obdreld_artifact_fetch_hedge_wins_total", "Peer fetches won by the hedge-launched candidate.", a.FetchHedgeWins)
	warmGauge := 0.0
	if a.Warming {
		warmGauge = 1
	}
	gauge("obdreld_artifact_warming", "1 while the startup anti-entropy sweep is still running.", warmGauge)

	// Membership families: emitted only in cluster mode (Epoch ≥ 1
	// there) so the exposition stays byte-stable for single nodes.
	if a.Epoch > 0 {
		counter("obdreld_cluster_heartbeat_errors_total", "Failed gossip exchanges with peers.", a.HeartbeatErrors)
		gauge("obdreld_cluster_epoch", "This node's membership view epoch.", float64(a.Epoch))
		fmt.Fprintf(cw, "# HELP obdreld_cluster_members Membership directory size by state, self included.\n")
		fmt.Fprintf(cw, "# TYPE obdreld_cluster_members gauge\n")
		fmt.Fprintf(cw, "obdreld_cluster_members{state=\"active\"} %d\n", a.MembersActive)
		fmt.Fprintf(cw, "obdreld_cluster_members{state=\"suspect\"} %d\n", a.MembersSuspect)
		fmt.Fprintf(cw, "obdreld_cluster_members{state=\"dead\"} %d\n", a.MembersDead)
	}

	// SLO burn-rate families (absent entirely when no objectives are
	// configured, so the exposition stays byte-stable for non-SLO
	// deployments).
	if reps := m.slo(); len(reps) > 0 {
		fmt.Fprintf(cw, "# HELP obdreld_slo_target Objective target as a fraction (e.g. 0.999), by route and objective.\n")
		fmt.Fprintf(cw, "# TYPE obdreld_slo_target gauge\n")
		for _, r := range reps {
			fmt.Fprintf(cw, "obdreld_slo_target{route=%q,slo=%q} %g\n", r.Route, r.Label, r.TargetPct/100)
		}
		fmt.Fprintf(cw, "# HELP obdreld_slo_good_total Requests that met the objective, by route and objective.\n")
		fmt.Fprintf(cw, "# TYPE obdreld_slo_good_total counter\n")
		for _, r := range reps {
			fmt.Fprintf(cw, "obdreld_slo_good_total{route=%q,slo=%q} %d\n", r.Route, r.Label, r.Good)
		}
		fmt.Fprintf(cw, "# HELP obdreld_slo_bad_total Requests that burned the objective's error budget, by route and objective.\n")
		fmt.Fprintf(cw, "# TYPE obdreld_slo_bad_total counter\n")
		for _, r := range reps {
			fmt.Fprintf(cw, "obdreld_slo_bad_total{route=%q,slo=%q} %d\n", r.Route, r.Label, r.Bad)
		}
		fmt.Fprintf(cw, "# HELP obdreld_slo_burn_rate Windowed error rate over error budget (1.0 = burning exactly at budget), by route, objective, and window.\n")
		fmt.Fprintf(cw, "# TYPE obdreld_slo_burn_rate gauge\n")
		for _, r := range reps {
			for _, w := range r.Windows {
				fmt.Fprintf(cw, "obdreld_slo_burn_rate{route=%q,slo=%q,window=%q} %g\n", r.Route, r.Label, w.Window, w.Burn)
			}
		}
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
