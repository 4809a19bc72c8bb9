package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"obdrel"
	"obdrel/internal/batch"
	"obdrel/internal/fault"
)

// This file implements POST /v1/batch: one request carries thousands
// of (design, config-delta, query) items as a JSON array; the
// response streams back as JSONL — a header line, one line per item
// in input order, and a trailer with the run's totals. Each item
// resolves and answers through the one query path (query.go); the
// batch planner (internal/batch) groups items by analyzer key so the
// substrate builds once per group, and evaluates groups with
// warm-path calls across the worker pool. Item failures are per-item
// lines with an honest fault class; they never abort the stream.

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
// item in the group, and whether the registry held it.
type batchPrepared struct {
	an  *obdrel.Analyzer
	hit bool
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

// handleBatch runs one batch stream inside instrument's envelope.
// Pre-stream failures (bad window parameter, a body that is not a JSON
// array) are returned for the envelope to answer as a buffered 400;
// once the header line is out the status is locked at 200 and every
// later failure is either a per-item error line or a done:false
// trailer.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) (res any, err error) {
	window := s.opts.BatchWindow
	if q := r.URL.Query().Get("window"); q != "" {
		v, perr := strconv.Atoi(q)
		if perr != nil || v < 1 || v > maxBatchWindow {
			return nil, errBadRequest("window must be an integer in [1, %d], got %q", maxBatchWindow, q)
		}
		window = v
	}
	// Items decode strictly: an unknown field makes the item
	// malformed, which ends the stream with a done:false trailer.
	dec := strictDecoder(io.LimitReader(r.Body, maxBatchBody))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('[') {
		return nil, errBadRequest("request body must be a JSON array of batch items")
	}
	defer func() {
		if res != nil {
			if p := recover(); p != nil {
				// Mid-stream panic: the 200 is already committed; the
				// missing trailer tells the client the stream died.
				res, err = streamed(http.StatusInternalServerError), nil
			}
		}
	}()

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
	res = streamed(http.StatusOK)
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
	return res, nil
}

// resolveBatchWork turns one wire item into planner work through the
// one query path: the resolver's query, its analyzer as the group's
// once-per-key prepare, and the answer builder as the per-item eval.
// Resolution failures (unknown design, invalid config, missing
// arguments) become the item's error without planning.
func (s *Server) resolveBatchWork(index int, it *batchItem) batch.Work {
	q, err := s.resolve(it.Query, &it.apiRequest, it.Trace)
	if err != nil {
		return batch.Work{Index: index, Err: err}
	}
	return batch.Work{
		Index:   index,
		Key:     q.key,
		EvalKey: q.evalKey(),
		// prepare builds (or fetches) the group's analyzer and warms the
		// engine its items evaluate on, so every item takes the
		// zero-alloc path. A maxvdd group only warms the base substrate
		// (covariance/PCA/BLOD are voltage-independent and shared by
		// every probe through the stage cache): its bisection fetches a
		// probe analyzer per voltage.
		Prepare: func(ctx context.Context) (any, error) {
			an, hit, err := s.analyzer(ctx, &q)
			if err != nil {
				return nil, err
			}
			if q.kind != kindMaxVDD {
				if err := an.Prepare(q.m); err != nil {
					return nil, queryErr(err)
				}
			}
			return &batchPrepared{an: an, hit: hit}, nil
		},
		Eval: func(ctx context.Context, prepared any) (any, error) {
			p := prepared.(*batchPrepared)
			return s.answer(ctx, &q, p.an, p.hit)
		},
	}
}
