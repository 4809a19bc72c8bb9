package obs

import (
	"context"
	"sync"
	"time"
)

// StageVisit is one resolved pipeline round observed during a request:
// which stage, which tier ultimately supplied it (mem/disk/peer/built),
// and — when it was built — how long the build ran.
type StageVisit struct {
	Stage   string  `json:"stage"`
	Source  string  `json:"source"`
	BuildMs float64 `json:"build_ms,omitempty"`
}

// maxStageVisits bounds per-request memory; requests that walk more
// stages than this (bisection sweeps) keep counting but stop listing.
const maxStageVisits = 128

// ReqStats collects per-request cost and provenance: the pipeline tier
// walk (stage provenance), build time, peer traffic, and whether the
// answer was served stale. It rides the context like a span does, and
// like a span the nil receiver no-ops every method with zero
// allocations, so library callers outside a server request pay a nil
// check, proven 0 allocs/op in tests.
type ReqStats struct {
	mu       sync.Mutex
	visits   []StageVisit
	dropped  int
	builds   int
	mem      int
	disk     int
	peer     int
	buildNs  int64
	stale    bool
	staleAge time.Duration
}

// reqStatsKey carries the collector through a context.
type reqStatsKey struct{}

// WithReqStats returns a context carrying a fresh collector.
func WithReqStats(ctx context.Context) (context.Context, *ReqStats) {
	rs := &ReqStats{}
	return context.WithValue(ctx, reqStatsKey{}, rs), rs
}

// ReqStatsFrom returns the context's collector, or nil (zero allocs).
func ReqStatsFrom(ctx context.Context) *ReqStats {
	rs, _ := ctx.Value(reqStatsKey{}).(*ReqStats)
	return rs
}

// CarryReqStats returns ctx carrying from's collector, or ctx itself
// when from has none. The pipeline hands a detached flight context the
// initiating request's collector this way, so the nested tier walk
// that feeds a build — peer and disk fills of sub-stages — lands in
// the request that caused the build, mirroring how the initiator's
// span parents build-internal spans.
func CarryReqStats(ctx, from context.Context) context.Context {
	if rs := ReqStatsFrom(from); rs != nil {
		return context.WithValue(ctx, reqStatsKey{}, rs)
	}
	return ctx
}

// RecordStage notes one successfully resolved pipeline round. Source
// is a pipeline provenance constant ("mem", "disk", "peer", "built").
// No-op on nil collectors.
func (rs *ReqStats) RecordStage(stage, source string, buildNs int64) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	switch source {
	case "mem":
		rs.mem++
	case "disk":
		rs.disk++
	case "peer":
		rs.peer++
	case "built":
		rs.builds++
		rs.buildNs += buildNs
	}
	if len(rs.visits) < maxStageVisits {
		rs.visits = append(rs.visits, StageVisit{
			Stage:   stage,
			Source:  source,
			BuildMs: float64(buildNs) / 1e6,
		})
	} else {
		rs.dropped++
	}
	rs.mu.Unlock()
}

// Visits returns a copy of the recorded tier walk (nil for a nil or
// empty collector) plus the count of visits dropped past the cap.
func (rs *ReqStats) Visits() ([]StageVisit, int) {
	if rs == nil {
		return nil, 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.visits) == 0 {
		return nil, rs.dropped
	}
	out := make([]StageVisit, len(rs.visits))
	copy(out, rs.visits)
	return out, rs.dropped
}

// Counts summarizes the tier walk: stage builds, per-tier hits, and
// total build time. Zero values on nil collectors.
func (rs *ReqStats) Counts() (builds, mem, disk, peer int, buildNs int64) {
	if rs == nil {
		return 0, 0, 0, 0, 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.builds, rs.mem, rs.disk, rs.peer, rs.buildNs
}

// RecordStale notes that the request was answered from a last-good
// analyzer of the given age because its rebuild failed. No-op on nil
// collectors.
func (rs *ReqStats) RecordStale(age time.Duration) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.stale, rs.staleAge = true, age
	rs.mu.Unlock()
}

// Stale reports whether the request was served stale, and the age of
// what it was served. False on nil collectors.
func (rs *ReqStats) Stale() (time.Duration, bool) {
	if rs == nil {
		return 0, false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.staleAge, rs.stale
}
