package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"obdrel"
	"obdrel/internal/batch"
	"obdrel/internal/fault"
	"obdrel/internal/obs"
)

// This file implements POST /v1/batch: one request carries thousands
// of (design, config-delta, query) items as a JSON array; the
// response streams back as JSONL — a header line, one line per item
// in input order, and a trailer with the run's totals. The batch
// planner (internal/batch) canonicalizes each item's effective
// config, groups items by shared analyzer cache key so the substrate
// builds once per group, and evaluates groups with warm-path calls
// across the worker pool. Item failures are per-item lines with an
// honest fault class; they never abort the stream.

// batchItem is the wire form of one batch item. Query selects the
// question: "lifetime" (default), "failureprob", "maxvdd", or
// "trace" (telemetry replay — Trace carries the piecewise history).
// The remaining fields mirror the unary /v1 endpoints.
type batchItem struct {
	ID          string       `json:"id,omitempty"`
	Query       string       `json:"query,omitempty"`
	Design      string       `json:"design"`
	Method      string       `json:"method,omitempty"`
	PPM         float64      `json:"ppm,omitempty"`
	T           float64      `json:"t,omitempty"`
	TargetHours float64      `json:"target_hours,omitempty"`
	VLo         float64      `json:"vlo,omitempty"`
	VHi         float64      `json:"vhi,omitempty"`
	TolV        float64      `json:"tolv,omitempty"`
	Trace       obdrel.Trace `json:"trace,omitempty"`
	Config      configParams `json:"config,omitempty"`
}

// batchHeader is the stream's first line.
type batchHeader struct {
	Stream string `json:"stream"`
	Window int    `json:"window"`
}

// batchLine is one item's result line.
type batchLine struct {
	I      int    `json:"i"`
	ID     string `json:"id,omitempty"`
	OK     bool   `json:"ok"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	Class  string `json:"class,omitempty"`
}

// batchTrailer is the stream's last line. Done is false when the run
// ended early (malformed mid-stream item, item cap, deadline) — the
// per-item lines already emitted remain valid.
type batchTrailer struct {
	Done      bool    `json:"done"`
	Items     int64   `json:"items"`
	OK        int64   `json:"ok"`
	Errors    int64   `json:"errors"`
	Groups    int64   `json:"groups"`
	Reused    int64   `json:"reused"`
	Shared    int64   `json:"shared_evals"`
	Windows   int64   `json:"windows"`
	ElapsedUs float64 `json:"elapsed_us"`
	Error     string  `json:"error,omitempty"`
	Class     string  `json:"class,omitempty"`
}

// batchPrepared is a group's shared state: the analyzer serving every
// item in the group, with its registry provenance.
type batchPrepared struct {
	an  *obdrel.Analyzer
	src GetResult
}

const (
	// maxBatchWindow caps the per-request ?window override; the
	// window bounds server memory, so a client cannot raise it
	// without bound.
	maxBatchWindow = 4096
	// maxBatchBody bounds the request body; ~1 KB per item times the
	// default item cap, with headroom for verbose traces.
	maxBatchBody = 64 << 20
	// maxBatchIDLen truncates echoed item IDs so a hostile payload
	// cannot make the server buffer megabytes of identifiers.
	maxBatchIDLen = 64
)

// instrumentBatch wraps the batch stream handler with the same
// production envelope as instrument — method gate, drain gate,
// admission (one slot covers the whole stream), in-flight gauge,
// stream deadline, per-request fault injection, root span, panic
// containment, metrics, access log — minus the buffered-JSON response
// writing, which the handler replaces with chunked JSONL.
func (s *Server) instrumentBatch(route string) http.Handler {
	allow := []string{http.MethodPost}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := http.StatusOK
		traceID := ""
		defer func() {
			d := time.Since(start)
			s.metrics.ObserveRequest(route, status, d)
			s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("query", r.URL.RawQuery),
				slog.Int("status", status),
				slog.Int64("dur_us", d.Microseconds()),
				slog.String("remote", r.RemoteAddr),
				slog.String("trace_id", traceID),
			)
		}()

		if !methodAllowed(r.Method, allow) {
			status = writeMethodNotAllowed(w, r, route, allow)
			return
		}
		if s.draining.Load() {
			s.metrics.DrainRejected.Add(1)
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "5")
			writeJSON(w, status, map[string]any{"error": "server is draining for shutdown"})
			return
		}
		admitted, rejStatus := s.admit(w, r)
		if !admitted {
			status = rejStatus
			return
		}
		defer func() { <-s.sem }()
		enteredService := time.Now()
		defer func() { s.observeServiceTime(time.Since(enteredService)) }()

		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.opts.BatchTimeout)
		defer cancel()

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

		// Root span: the traceparent response header must be set here,
		// before the first streamed byte locks the headers.
		parentTID, parentSID, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		ctx, root := s.tracer.StartTrace(ctx, route, parentTID, parentSID)
		if root != nil {
			traceID = root.TraceID()
			w.Header().Set("traceparent", obs.Traceparent(root.TraceID(), root.ID()))
			root.SetAttr("http_method", r.Method)
		}

		func() {
			defer func() {
				if p := recover(); p != nil {
					// Mid-stream panic: the JSONL contract means we may
					// have already committed a 200; the missing trailer
					// tells the client the stream died.
					status = http.StatusInternalServerError
				}
			}()
			status = s.handleBatch(ctx, w, r)
		}()

		if root != nil {
			root.SetAttr("status", status)
			root.EndTrace()
		}
	})
}

// handleBatch runs one batch stream and returns the HTTP status it
// committed. Pre-stream failures (bad window parameter, a body that
// is not a JSON array) answer a buffered 400; once the header line is
// out the status is locked at 200 and every later failure is either a
// per-item error line or a done:false trailer.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	window := s.opts.BatchWindow
	if q := r.URL.Query().Get("window"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > maxBatchWindow {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("window must be an integer in [1, %d], got %q", maxBatchWindow, q),
			})
			return http.StatusBadRequest
		}
		window = v
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('[') {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "request body must be a JSON array of batch items",
		})
		return http.StatusBadRequest
	}

	start := time.Now()
	s.metrics.BatchRequests.Add(1)
	// Small windows interleave request-body reads with response
	// writes; without full duplex the HTTP/1 server closes the
	// unread body at the first write and later Decode calls fail.
	_ = http.NewResponseController(w).EnableFullDuplex()
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc.Encode(batchHeader{Stream: "obdrel-batch/1", Window: window})

	// ids echoes client item identifiers back on result lines;
	// truncated so the slice stays small even for huge batches.
	var ids []string
	n := 0
	src := func() (batch.Work, bool, error) {
		if !dec.More() {
			return batch.Work{}, false, nil
		}
		if n >= s.opts.BatchMaxItems {
			return batch.Work{}, false, fmt.Errorf("batch exceeds the %d-item cap", s.opts.BatchMaxItems)
		}
		var it batchItem
		if derr := dec.Decode(&it); derr != nil {
			return batch.Work{}, false, fmt.Errorf("item %d: bad JSON: %v", n, derr)
		}
		id := it.ID
		if len(id) > maxBatchIDLen {
			id = id[:maxBatchIDLen]
		}
		ids = append(ids, id)
		work := s.resolveBatchWork(n, &it)
		n++
		return work, true, nil
	}
	emit := func(res batch.Result) error {
		s.metrics.ObserveBatchItem(res.Err)
		line := batchLine{I: res.Index, ID: ids[res.Index], OK: res.Err == nil}
		if res.Err != nil {
			line.Error = res.Err.Error()
			line.Class = fault.ClassOf(res.Err).String()
		} else {
			line.Result = res.Value
		}
		return enc.Encode(line)
	}
	stats, runErr := batch.Run(ctx, src, emit, batch.Options{
		Window:  window,
		Workers: s.opts.Workers,
		Flush: func() {
			if flusher != nil {
				flusher.Flush()
			}
		},
	})
	s.metrics.BatchGroups.Add(stats.Groups)
	s.metrics.BatchReused.Add(stats.Reused)
	s.metrics.BatchSharedEvals.Add(stats.SharedEvals)

	trailer := batchTrailer{
		Done:      runErr == nil,
		Items:     stats.Items,
		OK:        stats.OK,
		Errors:    stats.Failed,
		Groups:    stats.Groups,
		Reused:    stats.Reused,
		Shared:    stats.SharedEvals,
		Windows:   stats.Windows,
		ElapsedUs: float64(time.Since(start).Nanoseconds()) / 1e3,
	}
	if runErr != nil {
		trailer.Error = runErr.Error()
		trailer.Class = fault.ClassOf(runErr).String()
	}
	enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
	s.metrics.BatchStreamBytes.Add(cw.n)
	return http.StatusOK
}

// resolveBatchWork canonicalizes one wire item into planner work: the
// effective config, the substrate grouping key, the once-per-group
// prepare, and the per-item eval. Resolution failures (unknown
// design, invalid config, missing required fields) become the item's
// error without planning.
func (s *Server) resolveBatchWork(index int, it *batchItem) batch.Work {
	fail := func(err error) batch.Work { return batch.Work{Index: index, Err: err} }
	d, cfg, m, err := s.resolve(&apiRequest{Design: it.Design, Method: it.Method, Config: it.Config})
	if err != nil {
		return fail(err)
	}
	ppm := it.PPM
	if ppm == 0 {
		ppm = 10
	}
	query := it.Query
	if query == "" {
		query = "lifetime"
	}

	// timed stamps a result with sub-µs query latency — the repo
	// benchmark's batch-fleet workload sums it into its eval-CPU row,
	// and integer µs would floor warm-path queries to 0.
	timed := func(t0 time.Time, out map[string]any) map[string]any {
		out["query_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3
		return out
	}
	// prepare builds (or fetches) the group's analyzer and, when the
	// query evaluates on a fixed engine, warms that engine so every
	// item in the group takes the zero-alloc path.
	prepare := func(get func(context.Context) (*obdrel.Analyzer, GetResult, error), warm bool) func(context.Context) (any, error) {
		return func(pctx context.Context) (any, error) {
			an, src, err := get(pctx)
			if err != nil {
				return nil, err
			}
			if warm {
				if err := an.Prepare(m); err != nil {
					return nil, queryErr(err)
				}
			}
			return &batchPrepared{an: an, src: src}, nil
		}
	}
	key := s.registryKey(d, &it.Config, cfg)
	getBase := func(pctx context.Context) (*obdrel.Analyzer, GetResult, error) {
		return s.reg.Get(pctx, key, d, cfg)
	}

	switch query {
	case "lifetime":
		return batch.Work{
			Index:   index,
			Key:     key,
			EvalKey: fmt.Sprintf("lifetime|m=%s|ppm=%g", m, ppm),
			Prepare: prepare(getBase, true),
			Eval: func(_ context.Context, prepared any) (any, error) {
				p := prepared.(*batchPrepared)
				t0 := time.Now()
				life, err := p.an.LifetimePPM(ppm, m)
				if err != nil {
					return nil, queryErr(err)
				}
				return timed(t0, map[string]any{
					"design": d.Name, "method": m.String(), "ppm": ppm,
					"lifetime_hours": life, "cache": p.src.Label(),
				}), nil
			},
		}
	case "failureprob":
		if !(it.T > 0) {
			return fail(errBadRequest("item %d: t (hours) must be positive, got %v", index, it.T))
		}
		t := it.T
		return batch.Work{
			Index:   index,
			Key:     key,
			EvalKey: fmt.Sprintf("failureprob|m=%s|t=%g", m, t),
			Prepare: prepare(getBase, true),
			Eval: func(_ context.Context, prepared any) (any, error) {
				p := prepared.(*batchPrepared)
				t0 := time.Now()
				pf, err := p.an.FailureProb(t, m)
				if err != nil {
					return nil, queryErr(err)
				}
				return timed(t0, map[string]any{
					"design": d.Name, "method": m.String(), "t_hours": t,
					"failure_prob": pf, "reliability": 1 - pf, "cache": p.src.Label(),
				}), nil
			},
		}
	case "maxvdd":
		if !(it.TargetHours > 0) {
			return fail(errBadRequest("item %d: target_hours must be positive, got %v", index, it.TargetHours))
		}
		vLo, vHi := it.VLo, it.VHi
		if vLo == 0 {
			vLo = 0.9
		}
		if vHi == 0 {
			vHi = 1.5
		}
		target, tolV := it.TargetHours, it.TolV
		return batch.Work{
			Index:   index,
			Key:     key,
			EvalKey: fmt.Sprintf("maxvdd|m=%s|ppm=%g|target=%g|vlo=%g|vhi=%g|tolv=%g", m, ppm, target, vLo, vHi, tolV),
			// The bisection's probe analyzers differ per voltage, so
			// the group prepare only warms the base substrate
			// (covariance/PCA/BLOD are voltage-independent and shared
			// by every probe through the stage cache).
			Prepare: prepare(getBase, false),
			Eval: func(ictx context.Context, _ any) (any, error) {
				t0 := time.Now()
				probes := 0
				factory := func(fctx context.Context, pd *obdrel.Design, pc *obdrel.Config) (*obdrel.Analyzer, error) {
					probes++
					an, _, err := s.reg.Get(fctx, s.registryKey(pd, nil, pc), pd, pc)
					return an, err
				}
				v, err := obdrel.MaxVDDFromCtx(ictx, factory, d, cfg, m, ppm, target, vLo, vHi, tolV)
				if err != nil {
					return nil, queryErr(err)
				}
				return timed(t0, map[string]any{
					"design": d.Name, "method": m.String(), "ppm": ppm,
					"target_hours": target, "max_vdd": v, "probes": probes,
				}), nil
			},
		}
	case "trace":
		if err := it.Trace.Validate(); err != nil {
			return fail(errBadRequest("item %d: %v", index, err))
		}
		tr := it.Trace
		t := it.T
		traceKey := obdrel.TraceCacheKeyFrom(key, tr)
		return batch.Work{
			Index:   index,
			Key:     traceKey,
			EvalKey: fmt.Sprintf("trace|m=%s|ppm=%g|t=%g", m, ppm, t),
			Prepare: prepare(func(pctx context.Context) (*obdrel.Analyzer, GetResult, error) {
				return s.reg.GetTrace(pctx, s.stages, traceKey, d, cfg, tr)
			}, true),
			Eval: func(_ context.Context, prepared any) (any, error) {
				p := prepared.(*batchPrepared)
				t0 := time.Now()
				out := map[string]any{
					"design": d.Name, "method": m.String(),
					"trace_hours": tr.TotalHours(), "cache": p.src.Label(),
				}
				if t > 0 {
					pf, err := p.an.FailureProb(t, m)
					if err != nil {
						return nil, queryErr(err)
					}
					out["t_hours"], out["failure_prob"] = t, pf
				} else {
					life, err := p.an.LifetimePPM(ppm, m)
					if err != nil {
						return nil, queryErr(err)
					}
					out["ppm"], out["lifetime_hours"] = ppm, life
				}
				return timed(t0, out), nil
			},
		}
	default:
		return fail(errBadRequest("item %d: unknown query %q (want lifetime, failureprob, maxvdd, or trace)", index, query))
	}
}
