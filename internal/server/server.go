// Package server implements obdreld's JSON-over-HTTP reliability
// query service: the /v1 API over an analyzer registry (a pipeline
// stage cache with cancellable singleflight coalescing), with a
// bounded concurrency limiter, per-request timeouts, one JSON record
// per request, and a stdlib-only Prometheus-text /metrics endpoint.
//
// The serving model: an Analyzer is an immutable, fully characterized
// chip that is expensive to build (power/thermal fixed point, PCA,
// BLOD — hundreds of milliseconds) and microseconds to query (hybrid
// tables). The registry therefore memoizes analyzers by canonical
// (design, config) identity and coalesces concurrent builds, so a
// traffic burst for one configuration costs one characterization and
// N-1 cheap waits. Underneath, the library's stage graph caches the
// individual artifacts (thermal solve, PCA, BLOD, …), so even a
// registry miss rebuilds only the stages whose inputs changed; and
// the request context threads through every stage, so a request that
// times out cancels the computation it started unless another request
// still wants it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obdrel"
	"obdrel/internal/artifact"
	"obdrel/internal/fault"
	"obdrel/internal/obs"
	"obdrel/internal/pipeline"
)

// Options configure the service.
type Options struct {
	// MaxAnalyzers bounds the registry LRU (default 32).
	MaxAnalyzers int
	// MaxConcurrent bounds simultaneously served /v1 requests;
	// excess requests are rejected 429 (default 4×GOMAXPROCS).
	MaxConcurrent int
	// RequestTimeout is the per-request deadline (default 30s);
	// expiry answers 504 while any in-flight analyzer build finishes
	// in the background for the next request.
	RequestTimeout time.Duration
	// Workers is the Config.Workers applied to every build (0 =
	// GOMAXPROCS).
	Workers int
	// AccessLog receives one Record, a JSON line, per observed request
	// (every /v1 route and the cluster and artifact routes). Nil writes
	// none and builds none.
	AccessLog io.Writer
	// Build overrides the plain (design, config) analyzer factory
	// (tests); nil uses obdrel.NewAnalyzerCtxIn over Stages, so request
	// deadlines cancel in-flight stage builds. Trace analyzers (batch
	// "trace" items) never pass through it: they always build with
	// obdrel.NewTraceAnalyzerCtxIn in Stages.
	Build BuildFunc

	// Tracer overrides the request tracer; nil constructs one with
	// TraceBuffer capacity (unless DisableTracing).
	Tracer *obs.Tracer
	// DisableTracing turns per-request tracing off entirely: requests
	// run with an untraced context and the instrumented call sites
	// cost a nil check each.
	DisableTracing bool
	// TraceBuffer bounds the /debug/traces ring (default 128 traces,
	// and at most 64 spans per trace slot on average).
	TraceBuffer int
	// TraceJSONL, when non-nil, receives every finalized trace as one
	// JSON line.
	TraceJSONL io.Writer

	// QueueDepth enables the deadline-aware admission controller: up
	// to QueueDepth saturated requests wait for a slot instead of
	// getting an instant 429, but a request whose predicted wait
	// exceeds its deadline is rejected 503 immediately. 0 (default)
	// queues nothing: a request that finds no free slot gets an
	// instant 429.
	QueueDepth int
	// BatchWindow is the number of /v1/batch items planned, evaluated,
	// and held in memory at a time (default 256) — the unit of
	// streaming and the bound on per-request memory. BatchMaxItems
	// caps a single batch request's item count (default 10000).
	// BatchTimeout is the whole-stream deadline for /v1/batch (default
	// 5m): a batch is one admission slot doing thousands of queries,
	// so it gets its own budget instead of RequestTimeout.
	BatchWindow   int
	BatchMaxItems int
	BatchTimeout  time.Duration
	// FaultHeader honours per-request X-Fault injection specs — test
	// and staging builds only; never enable it on a public listener.
	FaultHeader bool

	// ArtifactDir enables the disk artifact tier: stage artifacts are
	// spilled there as sealed OBDA containers (atomic temp+rename)
	// and served back — checksum-verified — across restarts. Empty
	// disables the tier.
	ArtifactDir string
	// Peers pins a fixed ring: every node's base URL, this node's
	// included (-peers). The list is both the node's gossip seeds and
	// its pinned members, and the ring is exactly the list: members
	// stay in it when their lease expires, and gossip admits no name
	// outside it. Non-empty enables cluster mode: the peer cache-fill
	// tier, consistent-hash ownership of stage fingerprints, and the
	// member directory.
	Peers []string
	// Self is this node's own base URL; required in cluster mode, and
	// with Peers it must appear in the list.
	Self string
	// PeerTimeout bounds one peer artifact fetch (default 2s).
	PeerTimeout time.Duration
	// JoinPeers are seed URLs this node gossips with to discover the
	// fleet (-join); the ring is whoever is alive. Non-empty enables
	// cluster mode. Mutually exclusive with Peers; requires Self. A
	// first node may list only itself.
	JoinPeers []string
	// Lease is the membership lease: a peer silent for half of it turns
	// suspect, for all of it dead (default 10s). A dead -join member
	// leaves the ring; a dead pinned member stays in it.
	Lease time.Duration
	// WarmLimit bounds the anti-entropy startup sweep that loads this
	// node's owned artifacts from ArtifactDir into memory (default
	// 1024; negative disables the sweep). /readyz answers 503
	// "warming" until the sweep finishes.
	WarmLimit int
	// Stages overrides the stage-artifact cache (default: the
	// process-wide obdrel.Stages()). Cluster tests give each in-process
	// node its own cache so nodes do not share artifacts through the
	// process-wide one.
	Stages *pipeline.Cache

	// SLOs are the burn-rate objectives the node tracks (obdreld's
	// -slo flag, parsed by obs.ParseSLOSpec). Empty disables the
	// engine: /debug/slo answers an empty document and the
	// obdreld_slo_* families are absent.
	SLOs []obs.Objective
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxAnalyzers <= 0 {
		out.MaxAnalyzers = 32
	}
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.Stages == nil {
		out.Stages = obdrel.Stages()
	}
	if out.Build == nil {
		// Default factory builds into this node's stage cache — the
		// hook that lets disk/peer artifact tiers (and per-node caches
		// in in-process cluster tests) feed analyzer construction.
		stages := out.Stages
		out.Build = func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
			return obdrel.NewAnalyzerCtxIn(ctx, stages, d, cfg)
		}
	}
	if out.Tracer == nil && !out.DisableTracing {
		out.Tracer = obs.NewTracer(obs.Options{RingSize: out.TraceBuffer, JSONL: out.TraceJSONL})
	}
	if out.DisableTracing {
		out.Tracer = nil
	}
	if out.BatchWindow <= 0 {
		out.BatchWindow = 256
	}
	if out.BatchMaxItems <= 0 {
		out.BatchMaxItems = 10000
	}
	if out.BatchTimeout <= 0 {
		out.BatchTimeout = 5 * time.Minute
	}
	if out.PeerTimeout <= 0 {
		out.PeerTimeout = 2 * time.Second
	}
	if out.Lease <= 0 {
		out.Lease = 10 * time.Second
	}
	if out.WarmLimit == 0 {
		out.WarmLimit = 1024
	}
	return out
}

// Server is the obdreld HTTP service.
type Server struct {
	opts    Options
	metrics *Metrics
	reg     *Registry
	designs map[string]*obdrel.Design
	keys    map[*obdrel.Design]catalogKey
	order   []string
	sem     chan struct{}
	tracer  *obs.Tracer

	// stages is the node's stage-artifact cache (tiered when
	// ArtifactDir/Peers/JoinPeers are set); cluster is nil outside
	// cluster mode.
	stages  *pipeline.Cache
	cluster *cluster

	// slo is the burn-rate engine (nil without objectives, nil-safe);
	// logMu serializes record writes on AccessLog.
	slo   *obs.SLO
	logMu sync.Mutex

	// draining gates new work during graceful shutdown; queueLen and
	// ewmaServiceNs drive the admission controller; faultSeq seeds
	// per-request X-Fault injectors that carry no seed of their own.
	draining      atomic.Bool
	queueLen      atomic.Int64
	ewmaServiceNs atomic.Int64
	faultSeq      atomic.Int64

	// Anti-entropy warm-up state, reported by /readyz: warming is
	// true from construction until the sweep (if any) finishes;
	// warmDone/warmTotal track progress; warmLoaded the artifacts
	// actually brought into memory. peerServes counts sealed
	// artifacts served to peers from /v1/artifact.
	warming    atomic.Bool
	warmDone   atomic.Int64
	warmTotal  atomic.Int64
	warmLoaded atomic.Int64
	peerServes atomic.Int64
}

// NewE returns a service over the built-in benchmark designs. The only
// fallible part of construction is cluster membership validation, so a
// server without Peers or JoinPeers never returns an error.
func NewE(opts Options) (*Server, error) {
	o := opts.withDefaults()
	m := NewMetrics()
	s := &Server{
		opts:    o,
		metrics: m,
		reg:     NewRegistry(o.MaxAnalyzers, o.Build, m),
		designs: map[string]*obdrel.Design{},
		keys:    map[*obdrel.Design]catalogKey{},
		sem:     make(chan struct{}, o.MaxConcurrent),
		tracer:  o.Tracer,
		stages:  o.Stages,
		slo:     obs.NewSLO(o.SLOs),
	}
	m.stageStats = func() []pipeline.StageStat {
		stats := s.stages.Snapshot()
		return append(stats, s.reg.Stats())
	}
	m.queueDepth = s.queueLen.Load
	m.draining = s.draining.Load
	m.artifact = s.artifactStats
	m.slo = s.slo.Report
	// The catalog is immutable, so each design is hashed once here,
	// along with its whole registry key under the base config. A base
	// config that fails validation fails every request that would use
	// its key, so that key is never needed.
	base, baseErr := buildConfig(&configParams{}, &o)
	for _, d := range obdrel.Benchmarks() {
		s.designs[d.Name] = d
		s.order = append(s.order, d.Name)
		ck := catalogKey{fp: d.Fingerprint()}
		if baseErr == nil {
			ck.base = obdrel.CacheKeyFromFingerprint(ck.fp, base)
		}
		s.keys[d] = ck
	}

	// Artifact tiers: the disk spill dir and, in cluster mode, the
	// cluster cache-fill tier over it. -peers pins the ring, -join
	// discovers it — never both.
	if len(o.Peers) > 0 || len(o.JoinPeers) > 0 {
		cl, err := newCluster(&o)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	}
	if o.ArtifactDir != "" || s.cluster != nil {
		t := pipeline.Tiers{Dir: o.ArtifactDir}
		if s.cluster != nil {
			t.Fetch = s.cluster.fetch
		}
		s.stages.SetTiers(t)
	}
	s.startWarm()
	if s.cluster != nil {
		s.cluster.start()
	}
	return s, nil
}

// Close stops the cluster's background work WITHOUT a graceful leave
// — the in-process equivalent of kill −9 plus goroutine hygiene — and
// returns once it has stopped. A graceful exit calls BeginDrain first,
// which gossips the obituary. Close is a no-op outside cluster mode and safe to call
// twice.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.close()
	}
}

// startWarm launches the anti-entropy sweep: load this node's owned
// artifacts (every artifact, outside cluster mode) from the disk tier
// into memory, bounded by WarmLimit, so a restarted node rejoins the
// cluster already holding what the ring says it should. /readyz
// reports "warming" until the sweep finishes.
func (s *Server) startWarm() {
	o := s.opts
	if o.ArtifactDir == "" || o.WarmLimit < 0 {
		return
	}
	var owns func(stage, key string) bool
	if s.cluster != nil {
		owns = s.cluster.owns
	}
	s.warming.Store(true)
	go func() {
		defer s.warming.Store(false)
		ws := s.stages.WarmFromDisk(context.Background(), owns, o.WarmLimit,
			func(done, total int) {
				s.warmDone.Store(int64(done))
				s.warmTotal.Store(int64(total))
			})
		s.warmLoaded.Store(int64(ws.Loaded))
		if ws.Loaded+ws.Rejected > 0 {
			log.Printf("artifact warm sweep: loaded=%d skipped=%d rejected=%d",
				ws.Loaded, ws.Skipped, ws.Rejected)
		}
	}()
}

// Metrics exposes the server's counters (the daemon logs a summary on
// shutdown).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the request tracer (nil when tracing is disabled).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	get, post, unary := http.MethodGet, http.MethodPost, s.opts.RequestTimeout
	mux.Handle("/v1/designs", s.instrument("/v1/designs", unary, s.handleDesigns, get))
	mux.Handle("/v1/lifetime", s.instrument("/v1/lifetime", unary, s.queryRoute(kindLifetime), get, post))
	mux.Handle("/v1/failureprob", s.instrument("/v1/failureprob", unary, s.queryRoute(kindFailureProb), get, post))
	mux.Handle("/v1/maxvdd", s.instrument("/v1/maxvdd", unary, s.queryRoute(kindMaxVDD), get, post))
	mux.Handle("/v1/blocks", s.instrument("/v1/blocks", unary, s.handleBlocks, get, post))
	// A batch is one admission slot doing thousands of queries, so its
	// stream gets its own deadline.
	mux.Handle("/v1/batch", s.instrument("/v1/batch", s.opts.BatchTimeout, s.handleBatch, post))
	mux.Handle("/v1/artifact/", s.ops("/v1/artifact", s.handleArtifact, get))
	mux.Handle("/v1/cluster/stats", s.ops("/v1/cluster/stats", s.handleClusterStats, get))
	mux.Handle("/v1/cluster/status", s.ops("/v1/cluster/status", s.handleClusterStatus, get))
	if s.cluster != nil {
		mux.Handle("/v1/cluster/join", s.ops("/v1/cluster/join", s.handleClusterJoin, post))
	}
	for _, route := range []string{
		"/healthz", "/readyz", "/metrics", "/v1/designs", "/v1/lifetime",
		"/v1/failureprob", "/v1/maxvdd", "/v1/blocks", "/v1/batch",
		"/v1/artifact", "/v1/cluster/stats", "/v1/cluster/status",
		"/v1/cluster/join",
	} {
		s.metrics.RegisterRoute(route)
	}
	// Catch-all: unknown paths answer 404 and are observed under the
	// "other" route label, so scanners cannot grow /metrics.
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	writeJSON(w, http.StatusNotFound, map[string]any{
		"error": fmt.Sprintf("no route %s (see README: /healthz, /metrics, /v1/*)", r.URL.Path),
	})
	s.metrics.ObserveRequest(r.URL.Path, http.StatusNotFound, time.Since(start))
}

// DebugHandler returns the diagnostics surface served on the separate
// -debug-addr listener: /debug/traces plus net/http/pprof. It is kept
// off the public Handler so a production deployment can bind it to
// localhost only.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleTraces serves the recent-trace ring as JSON, newest first.
// Query parameters: n (max traces, default 32), route (exact root-span
// name match, e.g. /v1/maxvdd), min_dur (Go duration, e.g. 250ms —
// only traces at least that long).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "tracing is disabled"})
		return
	}
	// Malformed filters fall back to their defaults instead of
	// erroring: this is a diagnostics surface, and a dashboard link
	// with a stale or garbled query must still render something.
	q := r.URL.Query()
	n := 32
	if q.Has("n") {
		if v, err := strconv.Atoi(q.Get("n")); err == nil && v >= 1 {
			n = v
		}
	}
	var minDur time.Duration
	if q.Has("min_dur") {
		if v, err := time.ParseDuration(q.Get("min_dur")); err == nil && v > 0 {
			minDur = v
		}
	}
	route := q.Get("route")
	all := s.tracer.Recent(0)
	traces := make([]*obs.TraceOut, 0, n)
	for _, t := range all {
		if route != "" && t.Name != route {
			continue
		}
		if minDur > 0 && t.DurUs < float64(minDur.Microseconds()) {
			continue
		}
		traces = append(traces, t)
		if len(traces) == n {
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total_traces":    s.tracer.Total(),
		"late_spans":      s.tracer.LateSpans(),
		"ring":            len(all),
		"matched":         len(traces),
		"traces":          traces,
		"filters_applied": map[string]any{"route": route, "min_dur_us": minDur.Microseconds(), "n": n},
	})
}

// handleSLO serves the burn-rate engine's full report. Always 200:
// with no objectives configured it answers enabled=false with an empty
// objective list, so dashboards and smoke tests need no special case.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	reps := s.slo.Report()
	if reps == nil {
		reps = []obs.ObjectiveReport{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":    s.slo != nil,
		"objectives": reps,
	})
}

// SLOReport exposes the engine's report (nil when disabled) — the
// daemon logs a burn summary on shutdown.
func (s *Server) SLOReport() []obs.ObjectiveReport { return s.slo.Report() }

// apiError carries an HTTP status with a message; every other error
// maps to 500.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return &apiError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// handlerFunc answers one /v1 request inside instrument's envelope. It
// returns the payload for the envelope to write, or a streamed status
// when it has written the response itself.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, error)

// streamed is the status a streaming handler (/v1/batch) committed:
// returned as the payload, it tells the envelope the response is
// already on the wire.
type streamed int

// instrument is the one request envelope around every /v1 route,
// /v1/batch included: method gating (405 with an Allow header), the
// drain gate, admission (429/503 on saturation; a batch stream holds
// one slot), the in-flight gauge, the route's deadline (timeout), the
// X-Fault injector, the root trace span (honoring an incoming W3C
// traceparent and emitting one on the response), panic containment,
// error mapping, and observe: metrics, the SLO observation and the
// request's record.
func (s *Server) instrument(route string, timeout time.Duration, h handlerFunc, allow ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ob := s.begin()
		status := http.StatusOK
		defer func() { s.observe(route, r, status, &ob) }()

		// Method gate: a wrong verb answers 405 with the route's Allow
		// set before costing an admission slot or a trace.
		if len(allow) > 0 && !methodAllowed(r.Method, allow) {
			status = writeMethodNotAllowed(w, r, route, allow)
			return
		}

		// Draining: new requests are refused before costing anything, so
		// the load balancer (told via /readyz) and stragglers both get a
		// clean 503 while in-flight requests finish.
		if s.draining.Load() {
			s.metrics.DrainRejected.Add(1)
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "5")
			writeJSON(w, status, map[string]any{"error": "server is draining for shutdown"})
			return
		}

		// Admission: an instant slot, a bounded deadline-aware queue
		// wait, or a rejection that has already been written. Rejected
		// requests never start a trace: the shed path must stay
		// allocation-cheap precisely when the server is drowning.
		admitted, rejStatus := s.admit(w, r)
		if !admitted {
			status = rejStatus
			return
		}
		defer func() { <-s.sem }()
		enteredService := time.Now()
		ob.queueWait = enteredService.Sub(ob.start)
		defer func() { s.observeServiceTime(time.Since(enteredService)) }()

		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		// Per-request cost and provenance: the pipeline records its tier
		// walk (stage, provenance, build time) into the collector, and
		// the record reads it back at completion.
		ctx, ob.stats = obs.WithReqStats(ctx)

		// Per-request fault rules (test/staging): an X-Fault header arms
		// a request-scoped injector that follows the context into
		// detached stage builds. Specs without their own seed get a
		// per-request sequence number, so probabilistic rules vary
		// across requests yet stay replayable via an explicit seed=N.
		if s.opts.FaultHeader {
			if spec := r.Header.Get("X-Fault"); spec != "" {
				parsed, perr := fault.ParseSpec(spec)
				if perr != nil {
					status = http.StatusBadRequest
					writeJSON(w, status, map[string]any{"error": perr.Error()})
					return
				}
				ctx = fault.ContextWith(ctx, parsed.Injector(s.faultSeq.Add(1)))
			}
		}

		// Root span: adopt the caller's trace identity when the request
		// carries a valid traceparent, mint one otherwise, and echo the
		// resulting identity back so clients can join their records to
		// /debug/traces.
		parentTID, parentSID, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		ctx, root := s.tracer.StartTrace(ctx, route, parentTID, parentSID)
		if root != nil {
			ob.traceID = root.TraceID()
			w.Header().Set("traceparent", obs.Traceparent(root.TraceID(), root.ID()))
			root.SetAttr("http_method", r.Method)
			if q := r.URL.RawQuery; q != "" {
				root.SetAttr("query", q)
			}
		}

		resp, err := func() (resp any, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("internal panic: %v", p)
				}
			}()
			// server.handler: the outermost injection point — an armed
			// error rule here exercises the full error-mapping path, a
			// panic rule the recovery above.
			if ferr := fault.InjectLabeled(ctx, "server.handler", route); ferr != nil {
				return nil, ferr
			}
			return h(ctx, w, r)
		}()

		if st, ok := resp.(streamed); ok {
			// The stream committed its own status and headers.
			status = int(st)
			if root != nil {
				root.SetAttr("status", status)
				root.EndTrace()
			}
			return
		}

		var payload any
		switch {
		case err == nil:
			payload = resp
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.TimedOut.Add(1)
			status = http.StatusGatewayTimeout
			payload = map[string]any{"error": "request deadline exceeded"}
		default:
			cls := fault.ClassOf(err)
			var ae *apiError
			switch {
			case errors.As(err, &ae):
				status = ae.code
			case cls == fault.Transient:
				// An injected transient fault: worth the client asking
				// again.
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			case cls == fault.Cancelled:
				status = http.StatusGatewayTimeout
			default:
				status = http.StatusInternalServerError
			}
			payload = map[string]any{"error": err.Error(), "class": cls.String()}
		}

		// End the trace before writing: the finalized tree is what
		// ?explain=1 embeds in the response body.
		if root != nil {
			root.SetAttr("status", status)
			out := root.EndTrace()
			if out != nil && explainRequested(r) {
				if mp, ok := payload.(map[string]any); ok {
					mp["trace"] = out
				}
			}
		}
		writeJSON(w, status, payload)
	})
}

// methodAllowed reports whether method is in the route's allow set.
func methodAllowed(method string, allow []string) bool {
	for _, m := range allow {
		if method == m {
			return true
		}
	}
	return false
}

// writeMethodNotAllowed answers 405 with the RFC-required Allow header
// listing the verbs the route accepts, and returns the status.
func writeMethodNotAllowed(w http.ResponseWriter, r *http.Request, route string, allow []string) int {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeJSON(w, http.StatusMethodNotAllowed, map[string]any{
		"error": fmt.Sprintf("method %s not allowed on %s (allow: %s)", r.Method, route, strings.Join(allow, ", ")),
	})
	return http.StatusMethodNotAllowed
}

// explainRequested reports whether the request opted into the span
// tree with ?explain=1 (or explain=true).
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// await runs f in its own goroutine and returns its result, or the
// context error on expiry — f keeps running to completion so shared
// state (lazy engine builds inside an analyzer) is never abandoned
// half-made; the analyzer's own lock guarantees safety.
func await[T any](ctx context.Context, f func() (T, error)) (T, error) {
	type out struct {
		v   T
		err error
	}
	ch := make(chan out, 1)
	go func() {
		v, err := f()
		ch <- out{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// handleHealthz is LIVENESS: it answers 200 as long as the process can
// serve HTTP at all — including while draining, so an orchestrator
// does not kill a pod that is still finishing requests. Readiness
// (should traffic be routed here?) is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"uptime_s":         s.metrics.Uptime().Seconds(),
		"analyzers_cached": s.reg.Len(),
		"in_flight":        s.metrics.InFlight.Load(),
		"draining":         s.draining.Load(),
	})
}

// handleReadyz is READINESS: 200 while accepting new work, 503 once
// BeginDrain has run — flipped before the listener closes, so load
// balancers drain this instance gracefully.
// It also answers 503 "warming" while the anti-entropy artifact sweep
// is still loading this node's owned artifacts from disk, so a load
// balancer does not route traffic to a node that would rebuild stages
// its own disk already holds.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.warming.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":     "warming",
			"warming":    true,
			"warmed":     s.warmDone.Load(),
			"warm_total": s.warmTotal.Load(),
		})
		return
	}
	out := map[string]any{
		"status":  "ready",
		"warming": false,
		"warmed":  s.warmDone.Load(),
	}
	// Cluster mode: report the view epoch and the alive members.
	if cl := s.cluster; cl != nil {
		out["epoch"] = cl.epochView()
		out["members"] = len(cl.dir.Alive())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w)
}

// handleArtifact serves sealed stage artifacts to cluster peers:
// GET /v1/artifact/{stage}/{key} answers the OBDA container from this
// node's memory or disk tier, 404 when neither holds it. The sealed
// bytes go out verbatim — the fetching peer re-verifies the checksum,
// so a corrupt disk file on this node cannot propagate. Inputs are
// gated hard (registered stage, canonical fingerprint shape) because
// the key is about to be used in a file-path lookup.
//
// Cross-node tracing: a request carrying a valid W3C traceparent (the
// fetching peer's artifact.fetch span) is ADOPTED — this node roots a
// `peer.serve` span under the caller's trace identity, so both nodes'
// /debug/traces rings show the same trace id — and the finished span
// subtree is returned in the X-Obdrel-Span header for the fetcher to
// graft into its own tree.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request, ob *observed) (status int, body any) {
	var root *obs.Span
	if tid, sid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		_, root = s.tracer.StartTrace(r.Context(), "peer.serve", tid, sid)
		if root != nil {
			ob.traceID = root.TraceID()
			if s.cluster != nil {
				// Per-node provenance: which node served this subtree.
				root.SetAttr("node", s.cluster.self)
			}
			// Seal the serve span and hand its subtree to the caller in
			// a header: deferred, so it runs on every exit, after the
			// answer is chosen and before ops writes it.
			defer func() {
				root.SetAttr("status", status)
				root.SetAttr("held", status == http.StatusOK)
				if out := root.EndTrace(); out != nil {
					if enc, err := json.Marshal(out.Root); err == nil {
						w.Header().Set(spanSubtreeHeader, string(enc))
					}
				}
			}()
		}
	}
	stage, key, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/artifact/"), "/")
	if !ok || strings.Contains(key, "/") {
		return http.StatusBadRequest, map[string]any{"error": "want /v1/artifact/{stage}/{key}"}
	}
	root.SetAttr("stage", stage)
	if _, registered := artifact.Lookup(stage); !registered || !obdrel.ValidFingerprint(key) {
		return http.StatusBadRequest, map[string]any{"error": "unknown stage or malformed key"}
	}
	sealed, held := s.stages.Sealed(stage, key)
	if !held {
		return http.StatusNotFound, map[string]any{"error": "artifact not held here"}
	}
	s.peerServes.Add(1)
	return http.StatusOK, sealed
}

// ArtifactStats exposes the node-level artifact counters (the daemon
// logs them in its shutdown summary).
func (s *Server) ArtifactStats() ArtifactStats { return s.artifactStats() }

// artifactStats feeds the obdreld_artifact_* metric families: cluster
// fetch counters (zero outside cluster mode) plus this node's serve
// and warm-sweep counters.
func (s *Server) artifactStats() ArtifactStats {
	st := ArtifactStats{
		PeerServes: s.peerServes.Load(),
		WarmLoaded: s.warmLoaded.Load(),
		Warming:    s.warming.Load(),
	}
	if cl := s.cluster; cl != nil {
		st.FetchAttempts = cl.fetchAttempts.Load()
		st.FetchFills = cl.fetchFills.Load()
		st.FetchErrors = cl.fetchErrors.Load()
		st.FetchHedged = cl.fetchHedged.Load()
		st.FetchHedgeWins = cl.fetchHedgeWins.Load()
		st.Epoch = cl.epochView()
		st.HeartbeatErrors = cl.heartbeatErrs.Load()
		st.MembersActive, st.MembersSuspect, st.MembersDead = cl.dir.Counts()
	}
	return st
}

// catalogKey holds what the server derives once per catalog design:
// its Fingerprint and its registry key under the base config, the one
// every request without config overrides resolves to.
type catalogKey struct {
	fp, base string
}

// registryKey is the one place the server derives an analyzer's
// registry key; it always equals obdrel.CacheKey(d, cfg). p is the
// request's config overrides, or nil when cfg did not come straight
// from a request (MaxVDD probes). A request that overrides nothing
// reuses the precomputed base key; any other config hashes only
// itself next to the catalog fingerprint. A design the catalog does
// not hold hashes in full: the probe factory's design comes back
// through the library, not from s.designs.
func (s *Server) registryKey(d *obdrel.Design, p *configParams, cfg *obdrel.Config) string {
	ck, ok := s.keys[d]
	switch {
	case !ok:
		return obdrel.CacheKey(d, cfg)
	case p != nil && *p == (configParams{}):
		return ck.base
	default:
		return obdrel.CacheKeyFromFingerprint(ck.fp, cfg)
	}
}

func (s *Server) handleDesigns(context.Context, http.ResponseWriter, *http.Request) (any, error) {
	type designInfo struct {
		Name    string  `json:"name"`
		Blocks  int     `json:"blocks"`
		Devices int     `json:"devices"`
		DieW    float64 `json:"die_w"`
		DieH    float64 `json:"die_h"`
	}
	out := make([]designInfo, 0, len(s.order))
	for _, name := range s.order {
		d := s.designs[name]
		out = append(out, designInfo{
			Name: d.Name, Blocks: len(d.Blocks), Devices: d.TotalDevices(),
			DieW: d.W, DieH: d.H,
		})
	}
	return map[string]any{"designs": out}, nil
}

func (s *Server) handleBlocks(ctx context.Context, _ http.ResponseWriter, r *http.Request) (any, error) {
	var req apiRequest
	if err := parseRequest(r, &req); err != nil {
		return nil, err
	}
	q, err := s.resolveTarget(&req)
	if err != nil {
		return nil, err
	}
	an, hit, err := s.analyzer(ctx, &q)
	if err != nil {
		return nil, err
	}
	type blockOut struct {
		Name    string  `json:"name"`
		MeanTC  float64 `json:"mean_temp_c"`
		MaxTC   float64 `json:"max_temp_c"`
		PowerW  float64 `json:"power_w"`
		AlphaH  float64 `json:"alpha_h"`
		BPerNm  float64 `json:"b_per_nm"`
		Devices int     `json:"devices"`
	}
	blocks := an.Blocks()
	out := make([]blockOut, len(blocks))
	for i, b := range blocks {
		out[i] = blockOut{
			Name: b.Name, MeanTC: b.MeanTempC, MaxTC: b.MaxTempC,
			PowerW: b.PowerW, AlphaH: b.Alpha, BPerNm: b.B, Devices: b.Devices,
		}
	}
	tmin, tmean, tmax := an.TempSpread()
	payload := map[string]any{
		"design": q.d.Name,
		"cache":  cacheLabel(hit),
		"blocks": out,
		"temp_c": map[string]float64{"min": tmin, "mean": tmean, "max": tmax},
	}
	return payload, nil
}
