package server

import (
	"net/http"
	"strconv"
	"time"
)

// BeginDrain flips the server into draining mode: /readyz answers 503
// so load balancers stop routing here, and new /v1 requests are
// rejected 503 with Retry-After while in-flight ones finish. Call it
// BEFORE closing the listener so the readiness flip is observable.
// In cluster mode it also gossips this node's obituary (best effort,
// in the background) so the fleet drops it by epoch bump instead of
// waiting out the lease; a node that pins it keeps it in the ring.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	if s.cluster != nil {
		s.cluster.background(s.cluster.leave)
	}
}

// observeServiceTime feeds the admission controller's EWMA estimate of
// per-request service time (α = 1/8, atomic CAS — no lock on the hot
// path).
func (s *Server) observeServiceTime(d time.Duration) {
	n := d.Nanoseconds()
	for {
		old := s.ewmaServiceNs.Load()
		next := n
		if old > 0 {
			next = old + (n-old)/8
		}
		if s.ewmaServiceNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimatedWait predicts how long a request entering the queue at
// position pos (1-based) will wait for an execution slot: pos requests
// ahead of or at this position drain at MaxConcurrent per service
// time.
func (s *Server) estimatedWait(pos int64) time.Duration {
	ewma := s.ewmaServiceNs.Load()
	if ewma <= 0 {
		return 0
	}
	slots := int64(s.opts.MaxConcurrent)
	if slots < 1 {
		slots = 1
	}
	return time.Duration(ewma * pos / slots)
}

// admit blocks until an execution slot frees, the request deadline
// budget is spent, or the client leaves. It returns (admitted, status):
// when admitted is false the response (503/429) has already been
// written. The caller must release s.sem when admitted.
//
// A full queue answers an immediate 429; at QueueDepth 0 that is every
// request that finds no free slot. Reject-early: if the predicted
// queue wait already exceeds the request deadline, the request is
// refused immediately with 503 and a Retry-After estimating when
// capacity frees — failing in microseconds instead of holding the
// client for a doomed RequestTimeout.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (bool, int) {
	select {
	case s.sem <- struct{}{}:
		return true, 0
	default:
	}
	pos := s.queueLen.Add(1)
	defer s.queueLen.Add(-1)
	if pos > int64(s.opts.QueueDepth) {
		s.metrics.Throttled.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": "admission queue full, retry later"})
		return false, http.StatusTooManyRequests
	}
	if est := s.estimatedWait(pos); est > s.opts.RequestTimeout {
		s.metrics.AdmissionRejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(est))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "predicted queue wait exceeds the request deadline",
		})
		return false, http.StatusServiceUnavailable
	}
	t := time.NewTimer(s.opts.RequestTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true, 0
	case <-t.C:
		s.metrics.AdmissionRejected.Add(1)
		s.metrics.QueueTimeouts.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.estimatedWait(s.queueLen.Load())))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "no capacity within the request deadline",
		})
		return false, http.StatusServiceUnavailable
	case <-r.Context().Done():
		// The client left; nobody reads the response.
		return false, http.StatusServiceUnavailable
	}
}

// retryAfterSeconds renders a wait estimate as a Retry-After value
// (whole seconds, minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d/time.Second) + 1
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
