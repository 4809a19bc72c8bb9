// Command obdreld serves full-chip oxide-breakdown reliability
// queries over JSON-HTTP — the runtime reliability-management
// deployment the paper's Section IV-E motivates: characterize once,
// then answer µs-latency lifetime/failure-probability queries for
// field systems, DRM controllers, and design sweeps.
//
// Routes:
//
//	GET /healthz                       liveness + registry occupancy
//	GET /readyz                        readiness (503 once draining)
//	GET /metrics                       Prometheus text format
//	GET /v1/designs                    the built-in benchmark designs
//	GET /v1/lifetime?design=C6&method=hybrid&ppm=10
//	GET /v1/failureprob?design=C6&t=1e5
//	GET /v1/maxvdd?design=C6&target_hours=1e5&vlo=1.0&vhi=1.4
//	GET /v1/blocks?design=C6
//	POST /v1/batch                     fleet-scale JSON-array request, JSONL stream response
//
// /v1/batch accepts thousands of (design, config, query) items in one
// request, plans them window-at-a-time (-batch-window) through the
// internal/batch planner — substrate builds once per distinct
// (design, config) group, duplicate queries answered once — and
// streams one JSONL line per item plus a counting trailer. Items may
// also carry a telemetry trace (piecewise temp/voltage segments) for
// Miner's-rule replay. See DESIGN.md §13.
//
// Every query /v1 route also accepts POST with the same fields as a
// JSON body (config knobs nested under "config"). Analyzers are cached in
// an LRU registry keyed by canonical (design, config) identity;
// concurrent cold requests for one configuration coalesce into a
// single build, and the build itself resolves through the per-stage
// artifact cache (floorplan … chip), so configs that differ in only a
// few knobs rebuild only the stages those knobs feed.
//
//	obdreld -addr :8080 -cache 32 -stage-cache 64 -max-concurrent 64 -timeout 30s
//
// Every request runs under a trace (spans for stage lookups, thermal
// sweeps, bisection probes); append ?explain=1 to any /v1 query to get
// the span tree in the response, or start with -debug-addr to serve
// /debug/traces and /debug/pprof on a separate (typically localhost)
// listener; /debug/traces?min_dur= lists the slow requests with their
// trace ids. Every observed request writes one JSON record (route,
// status, dur_us, cache provenance, stage walk, trace id) to stderr
// unless -quiet.
//
// Resilience (see DESIGN.md §11): saturated requests wait in a
// deadline-aware admission queue (-queue) instead of an instant 429,
// shutdown drains in-flight requests (-drain, -drain-notice), and a
// failed build answers with its fault class and stage provenance. A
// build is a pure function of its key, so a failing key costs one build
// per request and is never cached. Chaos testing arms deterministic
// fault injection process-wide (-fault, -fault-seed) or per request
// (-fault-header + X-Fault) — test and staging builds only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"obdrel"
	"obdrel/internal/fault"
	"obdrel/internal/obs"
	"obdrel/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obdreld: ")
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cache         = flag.Int("cache", 32, "analyzer registry capacity (LRU entries)")
		stageCache    = flag.Int("stage-cache", 64, "per-stage artifact cache capacity (LRU entries per stage)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max simultaneous /v1 requests; excess get 429 (0 = 4×GOMAXPROCS)")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		workers       = flag.Int("workers", 0, "analysis worker parallelism per build (0 = GOMAXPROCS)")
		drain         = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
		quiet         = flag.Bool("quiet", false, "write no per-request record to stderr")
		debugAddr     = flag.String("debug-addr", "", "diagnostics listener (/debug/traces + /debug/pprof); empty disables")
		traceBuffer   = flag.Int("trace-buffer", 128, "recent-trace ring capacity served by /debug/traces")
		noTrace       = flag.Bool("no-trace", false, "disable per-request tracing")
		traceJSONL    = flag.String("trace-jsonl", "", "append every finalized trace as a JSON line to this file")

		batchWindow   = flag.Int("batch-window", 0, "/v1/batch items planned and held in memory at a time (0 = 256)")
		batchMaxItems = flag.Int("batch-max-items", 0, "max items admitted per /v1/batch stream; excess items fail the trailer (0 = 10000)")
		batchTimeout  = flag.Duration("batch-timeout", 0, "whole-stream deadline for /v1/batch (0 = 5m; -timeout does not apply to batch streams)")

		queueDepth  = flag.Int("queue", -1, "admission queue depth for saturated requests (-1 = 2×max-concurrent, 0 = legacy instant 429)")
		drainNotice = flag.Duration("drain-notice", 0, "pause between flipping /readyz unready and closing the listener, so load balancers stop routing first")
		faultSpec   = flag.String("fault", "", "process-wide fault-injection profile, e.g. 'pipeline.build:error:0.1,thermal.solve:latency:50ms:0.05' (test/staging only)")
		faultSeed   = flag.Int64("fault-seed", 1, "decision-stream seed for -fault rules without their own seed= segment")
		faultHeader = flag.Bool("fault-header", false, "honour per-request X-Fault injection headers (never on a public listener)")

		sloSpec = flag.String("slo", "", "burn-rate objectives, e.g. '/v1/lifetime:availability:99.9,/v1/lifetime:latency:25ms:99' (route '*' watches every route); served on /debug/slo and as obdreld_slo_* metrics")

		artifactDir = flag.String("artifact-dir", "", "spill serializable stage artifacts to this directory and serve them back across restarts (empty disables the disk tier)")
		peers       = flag.String("peers", "", "comma-separated base URLs of every cluster node, this one included; pins a fixed ring whose members never leave it, and enables peer cache-fill (requires -self; mutually exclusive with -join)")
		self        = flag.String("self", "", "this node's base URL as seen by peers")
		peerTimeout = flag.Duration("peer-timeout", 2*time.Second, "deadline for one peer artifact fetch")
		warmLimit   = flag.Int("warm-limit", 1024, "max artifacts the startup anti-entropy sweep loads from -artifact-dir (negative disables; /readyz reports progress)")

		join  = flag.String("join", "", "comma-separated seed URLs of an existing cluster; the ring is discovered by gossip and tracks live members (requires -self; a first node seeds with its own -self URL)")
		lease = flag.Duration("lease", 10*time.Second, "membership lease: a node silent for lease/2 is suspect, for the full lease dead")
	)
	flag.Parse()

	var accessLog io.Writer = os.Stderr
	if *quiet {
		accessLog = nil
	}
	var traceSink io.Writer
	if *traceJSONL != "" {
		f, err := os.OpenFile(*traceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("-trace-jsonl: %v", err)
		}
		defer f.Close()
		traceSink = f
	}
	obdrel.Stages().SetDefaultCapacity(*stageCache)

	// Process-wide fault profile (chaos testing): armed before serving
	// so every injection point sees it, and logged loudly — this must
	// never be on silently in production.
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatalf("-fault: %v", err)
		}
		fault.Arm(spec.Injector(*faultSeed))
		log.Printf("FAULT INJECTION ARMED: %s (seed %d)", *faultSpec, *faultSeed)
	}
	if *faultHeader {
		log.Printf("per-request X-Fault headers honoured (-fault-header)")
	}

	sloObjs, err := obs.ParseSLOSpec(*sloSpec)
	if err != nil {
		log.Fatalf("-slo: %v", err)
	}
	if len(sloObjs) > 0 {
		log.Printf("slo burn-rate engine armed: %s", *sloSpec)
	}

	if *queueDepth < 0 {
		mc := *maxConcurrent
		if mc <= 0 {
			mc = 4 * runtime.GOMAXPROCS(0)
		}
		*queueDepth = 2 * mc
	}
	var peerList, joinList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	if *join != "" {
		joinList = strings.Split(*join, ",")
	}
	if peerList != nil || joinList != nil {
		log.Printf("cluster mode: self=%s peers=%s join=%s lease=%v",
			*self, *peers, *join, *lease)
	}
	if *artifactDir != "" {
		if err := os.MkdirAll(*artifactDir, 0o755); err != nil {
			log.Fatalf("-artifact-dir: %v", err)
		}
		log.Printf("stage artifacts spill to %s", *artifactDir)
	}
	svc, err := server.NewE(server.Options{
		MaxAnalyzers:   *cache,
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *timeout,
		Workers:        *workers,
		AccessLog:      accessLog,
		DisableTracing: *noTrace,
		TraceBuffer:    *traceBuffer,
		TraceJSONL:     traceSink,

		BatchWindow:   *batchWindow,
		BatchMaxItems: *batchMaxItems,
		BatchTimeout:  *batchTimeout,

		QueueDepth:  *queueDepth,
		FaultHeader: *faultHeader,

		ArtifactDir: *artifactDir,
		Peers:       peerList,
		Self:        *self,
		PeerTimeout: *peerTimeout,
		WarmLimit:   *warmLimit,
		JoinPeers:   joinList,
		Lease:       *lease,

		SLOs: sloObjs,
	})
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           svc.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("debug listener on %s (/debug/traces, /debug/pprof)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (cache=%d, timeout=%v)", *addr, *cache, *timeout)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown, in order: flip /readyz unready so load
	// balancers stop routing here, optionally give them -drain-notice
	// to notice, then stop accepting and drain in-flight requests for
	// up to the drain window, then report the session's counters. New
	// /v1 requests racing the listener close get a clean 503 with
	// Retry-After instead of a connection reset.
	svc.BeginDrain()
	if *drainNotice > 0 {
		log.Printf("readiness withdrawn, waiting %v before closing the listener", *drainNotice)
		time.Sleep(*drainNotice)
	}
	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("drain incomplete: %v", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	svc.Close() // stop the membership loop (no-op outside cluster mode)
	m := svc.Metrics()
	fmt.Fprintf(os.Stderr,
		"obdreld: served %v; cache hits=%d misses=%d coalesced=%d; builds=%d (%.2fs); throttled=%d timed_out=%d; traces=%d\n",
		m.Uptime().Round(time.Second),
		m.CacheHits.Load(), m.CacheMisses.Load(), m.Coalesced.Load(),
		m.Builds.Load(), float64(m.BuildNanos.Load())/1e9,
		m.Throttled.Load(), m.TimedOut.Load(), svc.Tracer().Total())
	fmt.Fprintf(os.Stderr,
		"obdreld: resilience admission_rejected=%d queue_timeouts=%d drain_rejected=%d faults_injected=%d\n",
		m.AdmissionRejected.Load(),
		m.QueueTimeouts.Load(), m.DrainRejected.Load(), fault.InjectedTotal())
	fmt.Fprintf(os.Stderr,
		"obdreld: batch streams=%d items ok=%d error=%d groups=%d reused=%d shared_evals=%d stream_bytes=%d\n",
		m.BatchRequests.Load(), m.BatchItemsOK.Load(), m.BatchItemsErr.Load(),
		m.BatchGroups.Load(), m.BatchReused.Load(), m.BatchSharedEvals.Load(), m.BatchStreamBytes.Load())
	// Burn summary: the state an operator wants at the moment a node
	// leaves the fleet — which objectives were burning and how hard.
	for _, rep := range svc.SLOReport() {
		line := fmt.Sprintf("obdreld: slo %s %s good=%d bad=%d", rep.Route, rep.Label, rep.Good, rep.Bad)
		for _, w := range rep.Windows {
			line += fmt.Sprintf(" burn_%s=%.2f", w.Window, w.Burn)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if *artifactDir != "" || len(peerList) > 0 || len(joinList) > 0 {
		as := svc.ArtifactStats()
		fmt.Fprintf(os.Stderr,
			"obdreld: artifacts fetch_attempts=%d fetch_fills=%d fetch_errors=%d hedged=%d hedge_wins=%d peer_serves=%d warm_loaded=%d\n",
			as.FetchAttempts, as.FetchFills, as.FetchErrors, as.FetchHedged, as.FetchHedgeWins, as.PeerServes, as.WarmLoaded)
		if as.Epoch > 0 {
			fmt.Fprintf(os.Stderr,
				"obdreld: membership epoch=%d members active=%d suspect=%d dead=%d heartbeat_errors=%d\n",
				as.Epoch, as.MembersActive, as.MembersSuspect, as.MembersDead, as.HeartbeatErrors)
		}
	}
	for _, st := range obdrel.Stages().Snapshot() {
		fmt.Fprintf(os.Stderr,
			"obdreld: stage %-10s hits=%d misses=%d builds=%d failed=%d cancelled=%d build_s=%.3f entries=%d disk_hits=%d spills=%d peer_hits=%d\n",
			st.Stage, st.Hits, st.Misses, st.Builds, st.Failures, st.Cancels, st.BuildSeconds, st.Entries,
			st.DiskHits, st.Spills, st.PeerHits)
	}
}
