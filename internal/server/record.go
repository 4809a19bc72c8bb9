package server

import (
	"encoding/json"
	"net/http"
	"time"

	"obdrel/internal/obs"
)

// Record is the one per-request record: everything the metrics,
// trace and tier walk know about one request, denormalized into a
// single JSON line on Options.AccessLog so one grep answers "where did
// this answer come from and what did it cost". Every request an
// observed route serves writes one; with no AccessLog, none is built.
type Record struct {
	TS      string `json:"ts"`
	Route   string `json:"route"`
	Method  string `json:"method"`
	Status  int    `json:"status"`
	TraceID string `json:"trace_id,omitempty"`
	Remote  string `json:"remote,omitempty"`
	Query   string `json:"query,omitempty"`

	DurUs       int64 `json:"dur_us"`
	QueueWaitUs int64 `json:"queue_wait_us"`

	// Cache is the answer's provenance label (mem/disk/peer/built/
	// stale/none); Stages is the pipeline tier walk that produced it.
	Cache         string           `json:"cache,omitempty"`
	Stages        []obs.StageVisit `json:"stages,omitempty"`
	StagesDropped int              `json:"stages_dropped,omitempty"`
	StageBuilds   int              `json:"stage_builds"`
	BuildMs       float64          `json:"build_ms,omitempty"`
	PeerFills     int              `json:"peer_fills"`
	StalenessS    int64            `json:"staleness_s,omitempty"`

	// Process-level cost deltas sampled around the request. They are
	// honest about their scope: on a busy server concurrent requests
	// bleed into each other's deltas, but on a quiescent one they are
	// the request's own footprint.
	ProcAllocBytes   uint64 `json:"proc_alloc_bytes,omitempty"`
	ProcAllocObjects uint64 `json:"proc_alloc_objects,omitempty"`
	ProcCPUUs        int64  `json:"proc_cpu_us,omitempty"`
}

// observed is what an observed route knows about its request by the
// time it answers: when it started, the trace it ran under, how long
// it queued, its per-request collector (nil where the route resolves
// no pipeline work), and the process cost counters at the start, read
// only when a record will be written.
type observed struct {
	start     time.Time
	traceID   string
	queueWait time.Duration
	stats     *obs.ReqStats
	cost      costSnapshot
}

// begin starts observing one request.
func (s *Server) begin() observed {
	ob := observed{start: time.Now()}
	if s.opts.AccessLog != nil {
		ob.cost = readCost()
	}
	return ob
}

// observe closes one observed request: its metrics, its SLO
// observation and, when AccessLog is set, its record. It is the only
// writer of records.
func (s *Server) observe(route string, r *http.Request, status int, ob *observed) {
	d := time.Since(ob.start)
	s.metrics.ObserveRequest(route, status, d)
	s.slo.Observe(route, status, d, ob.traceID)
	if s.opts.AccessLog == nil {
		return
	}
	visits, dropped := ob.stats.Visits()
	builds, _, _, peer, buildNs := ob.stats.Counts()
	age, _ := ob.stats.Stale()
	end := readCost()
	enc, err := json.Marshal(&Record{
		TS:               ob.start.UTC().Format(time.RFC3339Nano),
		Route:            route,
		Method:           r.Method,
		Status:           status,
		TraceID:          ob.traceID,
		Remote:           r.RemoteAddr,
		Query:            r.URL.RawQuery,
		DurUs:            d.Microseconds(),
		QueueWaitUs:      ob.queueWait.Microseconds(),
		Cache:            cacheProvenance(ob.stats),
		Stages:           visits,
		StagesDropped:    dropped,
		StageBuilds:      builds,
		BuildMs:          float64(buildNs) / 1e6,
		PeerFills:        peer,
		StalenessS:       int64(age.Seconds()),
		ProcAllocBytes:   end.allocBytes - ob.cost.allocBytes,
		ProcAllocObjects: end.allocObjects - ob.cost.allocObjects,
		ProcCPUUs:        end.cpuUs - ob.cost.cpuUs,
	})
	if err != nil {
		return
	}
	enc = append(enc, '\n')
	s.logMu.Lock()
	s.opts.AccessLog.Write(enc)
	s.logMu.Unlock()
}

// cacheProvenance condenses a request's tier walk into the single
// label its record carries: where the answer really came from. Stale
// wins (the registry answered from the last-good store); a memory-hit
// analyzer is "mem"; an analyzer rebuilt this request reports the
// deepest tier that fed the rebuild — peer beats disk beats
// built-from-scratch. Requests that never touched the pipeline report
// "none".
func cacheProvenance(rs *obs.ReqStats) string {
	if _, stale := rs.Stale(); stale {
		return "stale"
	}
	builds, mem, disk, peer, _ := rs.Counts()
	switch {
	case builds == 0 && mem == 0 && disk == 0 && peer == 0:
		return "none"
	case builds == 0 && disk == 0 && peer == 0:
		return "mem"
	case peer > 0:
		return "peer"
	case disk > 0:
		return "disk"
	default:
		return "built"
	}
}
