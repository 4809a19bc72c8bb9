package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"obdrel"
	"obdrel/internal/fault"
	"obdrel/internal/pipeline"
)

// getResp is getJSON plus the response itself, for header assertions.
func getResp(t *testing.T, url string, hdr map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	_ = json.Unmarshal(body, &out)
	return resp, out
}

// TestServeStaleOnFailedRebuild evicts an analyzer from the primary
// LRU, poisons the builder, and verifies the next request for the
// evicted key is served from the last-good store with full staleness
// provenance: cache="stale" + staleness_s in the payload, the Warning
// and X-Staleness headers, and the serve_stale counter; a batch item
// for the key carries the same body provenance.
func TestServeStaleOnFailedRebuild(t *testing.T) {
	var fail atomic.Bool
	var logBuf syncBuffer
	s := mustNew(Options{
		AccessLog:    &logBuf,
		MaxAnalyzers: 1,
		MaxStale:     time.Hour,
		Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
			if fail.Load() {
				return nil, errors.New("substrate characterization backend down")
			}
			return obdrel.NewAnalyzerCtx(ctx, d, cfg)
		},
	})
	// The last-good store ages on a clock only the test moves, so the
	// stale answers below are exactly 90 s old however long the builds
	// in between take.
	var skew atomic.Int64
	base := time.Now()
	s.reg.now = func() time.Time { return base.Add(time.Duration(skew.Load())) }
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	urlA := srv.URL + "/v1/lifetime?design=C1&ppm=100&" + cheap
	urlB := srv.URL + "/v1/lifetime?design=C1&ppm=100&seed=2&" + cheap

	if resp, out := getResp(t, urlA, nil); resp.StatusCode != http.StatusOK || out["cache"] != "miss" {
		t.Fatalf("first build: status=%d cache=%v", resp.StatusCode, out["cache"])
	}
	// Evict A from the capacity-1 primary LRU.
	if resp, _ := getResp(t, urlB, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting build failed: %d", resp.StatusCode)
	}

	skew.Store(int64(90 * time.Second))
	fail.Store(true)
	resp, out := getResp(t, urlA, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale serve: status=%d body=%v", resp.StatusCode, out)
	}
	if out["cache"] != "stale" {
		t.Fatalf("cache label = %v, want stale", out["cache"])
	}
	if _, ok := out["staleness_s"]; !ok {
		t.Fatalf("payload missing staleness_s: %v", out)
	}
	if w := resp.Header.Get("Warning"); !strings.Contains(w, "Response is Stale") {
		t.Fatalf("Warning header = %q", w)
	}
	if got := resp.Header.Get("X-Staleness"); got != "90" {
		t.Fatalf("X-Staleness = %q, want 90", got)
	}
	if got := s.Metrics().ServeStale.Load(); got != 1 {
		t.Fatalf("ServeStale = %d, want 1", got)
	}
	// The same key as a batch item: its line has only a body to carry
	// the provenance.
	_, lines, _ := postBatch(t, srv.URL+"/v1/batch", batchBody(`{"design":"C1","ppm":100,"config":`+cheapCfg+`}`))
	if res, _ := lines[0]["result"].(map[string]any); res["cache"] != "stale" || res["staleness_s"] == nil {
		t.Fatalf("stale batch item = %v, want cache=stale with staleness_s", lines[0])
	}
	// Both stale answers' records say so, with their age: the unary
	// request and the batch stream are the third and fourth records.
	recs := readRecords(t, logBuf.String())
	if len(recs) != 4 {
		t.Fatalf("%d records, want one per request (4)", len(recs))
	}
	for i, route := range []string{"/v1/lifetime", "/v1/batch"} {
		if rec := recs[2+i]; rec.Route != route || rec.Cache != "stale" || rec.StalenessS != 90 {
			t.Errorf("stale %s record = %+v, want cache=stale staleness_s=90", route, rec)
		}
	}

	// With a healthy builder again the same key rebuilds fresh.
	fail.Store(false)
	if resp, out := getResp(t, urlA, nil); resp.StatusCode != http.StatusOK || out["cache"] != "miss" {
		t.Fatalf("recovery rebuild: status=%d cache=%v", resp.StatusCode, out["cache"])
	}
}

// TestServeStaleDisabled verifies a negative MaxStale turns the
// degradation off: the failed rebuild surfaces as an error.
func TestServeStaleDisabled(t *testing.T) {
	var fail atomic.Bool
	s := mustNew(Options{
		MaxAnalyzers:     1,
		MaxStale:         -1,
		BreakerThreshold: -1,
		Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
			if fail.Load() {
				return nil, errors.New("backend down")
			}
			return obdrel.NewAnalyzerCtx(ctx, d, cfg)
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	urlA := srv.URL + "/v1/lifetime?design=C1&ppm=100&" + cheap
	getResp(t, urlA, nil)
	getResp(t, srv.URL+"/v1/lifetime?design=C1&ppm=100&seed=2&"+cheap, nil)
	fail.Store(true)
	if resp, _ := getResp(t, urlA, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("disabled serve-stale: status=%d, want 500", resp.StatusCode)
	}
}

// TestXFaultHeaderInjection covers the per-request injection path:
// transient and permanent error rules map to 503/500 with the class in
// the body, a panic rule is contained to a 500, a malformed spec is a
// 400, and requests without the header are untouched.
func TestXFaultHeaderInjection(t *testing.T) {
	srv := newTestServer(t, Options{FaultHeader: true})
	url := srv.URL + "/v1/designs"

	resp, out := getResp(t, url, map[string]string{"X-Fault": "server.handler:error:1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("transient inject: status=%d body=%v", resp.StatusCode, out)
	}
	if out["class"] != "transient" {
		t.Fatalf("class = %v, want transient", out["class"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("transient 503 missing Retry-After")
	}

	if resp, out := getResp(t, url, map[string]string{"X-Fault": "server.handler:perm:1"}); resp.StatusCode != http.StatusInternalServerError || out["class"] != "permanent" {
		t.Fatalf("permanent inject: status=%d class=%v", resp.StatusCode, out["class"])
	}

	if resp, out := getResp(t, url, map[string]string{"X-Fault": "server.handler:panic:1"}); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(out["error"].(string), "internal panic") {
		t.Fatalf("panic inject: status=%d body=%v", resp.StatusCode, out)
	}

	if resp, _ := getResp(t, url, map[string]string{"X-Fault": "no-such-grammar::"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status=%d, want 400", resp.StatusCode)
	}

	// Match filters: a rule scoped to another route never fires here.
	if resp, _ := getResp(t, url, map[string]string{"X-Fault": "server.handler(/v1/maxvdd):error:1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("scoped rule fired on wrong route: %d", resp.StatusCode)
	}

	if resp, _ := getResp(t, url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request: status=%d", resp.StatusCode)
	}
}

// TestXFaultHeaderIgnoredByDefault verifies the header is inert unless
// the server opted in.
func TestXFaultHeaderIgnoredByDefault(t *testing.T) {
	srv := newTestServer(t, Options{})
	resp, _ := getResp(t, srv.URL+"/v1/designs", map[string]string{"X-Fault": "server.handler:error:1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-Fault honoured without FaultHeader: %d", resp.StatusCode)
	}
}

// TestBreakerOpenMapsTo503 drives a key past the breaker threshold and
// verifies the fast-fail surfaces as 503 with a Retry-After horizon.
func TestBreakerOpenMapsTo503(t *testing.T) {
	s := mustNew(Options{
		MaxStale:         -1,
		BreakerThreshold: 1,
		BreakerOpenFor:   time.Hour,
		Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
			return nil, errors.New("poisoned design")
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	url := srv.URL + "/v1/lifetime?design=C1&ppm=100&" + cheap
	if resp, _ := getResp(t, url, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first failure: status=%d, want 500", resp.StatusCode)
	}
	resp, out := getResp(t, url, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker fast-fail: status=%d body=%v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker 503 missing Retry-After")
	}
	if out["class"] != "overload" {
		t.Fatalf("class = %v, want overload", out["class"])
	}
}

// TestAdmissionQueueWaits verifies QueueDepth turns the legacy instant
// 429 into a bounded wait: a saturated request queues, then succeeds
// once the slot frees; an overflowing request is still 429'd.
func TestAdmissionQueueWaits(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := mustNew(Options{
		MaxConcurrent:  1,
		QueueDepth:     1,
		RequestTimeout: 10 * time.Second,
		Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return obdrel.NewAnalyzerCtx(ctx, d, cfg)
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	url := srv.URL + "/v1/lifetime?design=C1&ppm=100&" + cheap

	type result struct {
		status int
	}
	resA := make(chan result, 1)
	go func() {
		resp, _ := http.Get(url)
		resp.Body.Close()
		resA <- result{resp.StatusCode}
	}()
	<-entered // A holds the slot, blocked in its build.

	resB := make(chan result, 1)
	go func() {
		resp, _ := http.Get(url)
		resp.Body.Close()
		resB <- result{resp.StatusCode}
	}()
	// Wait until B occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.queueLen.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// C overflows the depth-1 queue: instant 429.
	if resp, _ := getResp(t, url, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status=%d, want 429", resp.StatusCode)
	}

	close(release)
	if r := <-resA; r.status != http.StatusOK {
		t.Fatalf("request A: %d", r.status)
	}
	if r := <-resB; r.status != http.StatusOK {
		t.Fatalf("queued request B: %d, want 200 after slot freed", r.status)
	}
}

// TestAdmissionRejectEarly verifies the deadline-aware controller
// refuses a request whose predicted queue wait already exceeds its
// deadline — instantly, not after RequestTimeout.
func TestAdmissionRejectEarly(t *testing.T) {
	s := mustNew(Options{MaxConcurrent: 1, QueueDepth: 8, RequestTimeout: 50 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Teach the controller that requests take far longer than any
	// deadline, then saturate the only slot.
	s.observeServiceTime(10 * time.Second)
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	resp, out := getResp(t, srv.URL+"/v1/designs", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reject-early: status=%d body=%v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("reject-early 503 missing Retry-After")
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("reject-early took %v — should not wait for the deadline", d)
	}
	if got := s.Metrics().AdmissionRejected.Load(); got != 1 {
		t.Fatalf("AdmissionRejected = %d, want 1", got)
	}
}

// TestAdmissionQueueTimeout verifies a queued request that never gets
// a slot inside its deadline leaves with a 503 and is counted.
func TestAdmissionQueueTimeout(t *testing.T) {
	s := mustNew(Options{MaxConcurrent: 1, QueueDepth: 8, RequestTimeout: 50 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	resp, _ := getResp(t, srv.URL+"/v1/designs", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue timeout: status=%d, want 503", resp.StatusCode)
	}
	if got := s.Metrics().QueueTimeouts.Load(); got != 1 {
		t.Fatalf("QueueTimeouts = %d, want 1", got)
	}
}

// TestLegacyInstant429 pins the default behaviour: with QueueDepth
// unset, saturation still answers an immediate 429.
func TestLegacyInstant429(t *testing.T) {
	s := mustNew(Options{MaxConcurrent: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	resp, _ := getResp(t, srv.URL+"/v1/designs", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("legacy saturation: status=%d, want 429", resp.StatusCode)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("legacy 429 took %v — must be instant", d)
	}
}

// TestDrainLifecycle verifies BeginDrain flips /readyz to 503 (while
// /healthz stays 200 for liveness) and sheds new /v1 work with a
// Retry-After, counting each rejection.
func TestDrainLifecycle(t *testing.T) {
	s := mustNew(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp, out := getResp(t, srv.URL+"/readyz", nil); resp.StatusCode != http.StatusOK || out["status"] != "ready" {
		t.Fatalf("readyz before drain: status=%d body=%v", resp.StatusCode, out)
	}

	s.BeginDrain()

	resp, out := getResp(t, srv.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "draining" {
		t.Fatalf("readyz during drain: status=%d body=%v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}

	if resp, out := getResp(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK || out["draining"] != true {
		t.Fatalf("healthz during drain: status=%d body=%v", resp.StatusCode, out)
	}

	resp, _ = getResp(t, srv.URL+"/v1/designs", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("v1 during drain: status=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 missing Retry-After")
	}
	if got := s.Metrics().DrainRejected.Load(); got != 1 {
		t.Fatalf("DrainRejected = %d, want 1", got)
	}
}

// TestTracesMalformedFiltersFallBack pins the diagnostics contract: a
// garbled dashboard link still renders, using the defaults.
func TestTracesMalformedFiltersFallBack(t *testing.T) {
	s := mustNew(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	getJSON(t, srv.URL+"/v1/designs", http.StatusOK)

	out := getJSON(t, dbg.URL+"/debug/traces?n=bogus&min_dur=alsobogus", http.StatusOK)
	if out["matched"].(float64) < 1 {
		t.Fatalf("fallback defaults matched nothing: %v", out)
	}
	getJSON(t, dbg.URL+"/debug/traces?n=-3&min_dur=-5s", http.StatusOK)
}

// TestResilienceMetricsExposition verifies the new counters and gauges
// appear on /metrics.
func TestResilienceMetricsExposition(t *testing.T) {
	s := mustNew(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"obdreld_serve_stale_total",
		"obdreld_admission_rejected_total",
		"obdreld_queue_timeouts_total",
		"obdreld_drain_rejected_total",
		"obdreld_fault_injected_total",
		"obdreld_stale_age_seconds",
		"obdreld_queue_depth",
		"obdreld_draining",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestChaosOverHTTP drives the resilience stack through the X-Fault
// header the way an operator's chaos run would, in four phases:
//
//   - churn: every request misses the registry (a fresh seed knob) and
//     carries its own seeded 10% registry.build error rule, so the
//     injected failures are the same on every run; retries absorb them;
//   - scope: a poisoned design's circuit opens (503) while a healthy
//     design keeps answering 200;
//   - recovery: once the faults stop and the short open window
//     expires, the half-open probe closes the circuit;
//   - leakage: clean traffic moves no injected-fault counter.
func TestChaosOverHTTP(t *testing.T) {
	s := mustNew(Options{
		Stages:           pipeline.NewCache(64),
		DisableTracing:   true,
		FaultHeader:      true,
		BreakerThreshold: 3,
		BreakerOpenFor:   500 * time.Millisecond,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	lifetime := func(design string, seed int) string {
		return fmt.Sprintf("%s/v1/lifetime?design=%s&method=st_fast&ppm=10&seed=%d&%s", srv.URL, design, seed, cheap)
	}
	status := func(url, spec string) int {
		hdr := map[string]string{}
		if spec != "" {
			hdr["X-Fault"] = spec
		}
		resp, _ := getResp(t, url, hdr)
		return resp.StatusCode
	}

	const churn = 100
	injected0 := fault.InjectedTotal()
	errs := 0
	for i := 0; i < churn; i++ {
		if status(lifetime("C1", 1000+i), fmt.Sprintf("seed=%d,registry.build:error:0.1", i+1)) != http.StatusOK {
			errs++
		}
	}
	injected := fault.InjectedTotal() - injected0
	retries := s.reg.Stats().Retries
	if errs != 0 {
		t.Errorf("churn: %d/%d client errors, want exactly 0 for these seeds", errs, churn)
	}
	// The seeded decision streams fire exactly 15 faults, each absorbed
	// by one retry.
	if injected != 15 || retries != injected {
		t.Errorf("churn: %d faults injected, %d retries — want 15 and 15", injected, retries)
	}

	healthy, poisoned := lifetime("C1", 1), lifetime("C2", 999001)
	if code := status(healthy, ""); code != http.StatusOK {
		t.Fatalf("healthy warmup: status %d", code)
	}
	opened := false
	for i := 0; i < 10 && !opened; i++ {
		opened = status(poisoned, "registry.build(C2):perm:1") == http.StatusServiceUnavailable
	}
	if !opened {
		t.Fatal("scope: the poisoned design's circuit never opened")
	}
	for i := 0; i < 10; i++ {
		if code := status(healthy, ""); code != http.StatusOK {
			t.Fatalf("scope: healthy design answered %d while C2's circuit was open", code)
		}
	}

	recovered := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !recovered; {
		recovered = status(poisoned, "") == http.StatusOK
		if !recovered {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !recovered {
		t.Fatal("recovery: the half-open probe never closed the circuit")
	}

	injected0 = fault.InjectedTotal()
	for i := 0; i < 20; i++ {
		if code := status(healthy, ""); code != http.StatusOK {
			t.Fatalf("leakage: clean request answered %d", code)
		}
	}
	if moved := fault.InjectedTotal() - injected0; moved != 0 {
		t.Fatalf("leakage: injected-fault counter moved by %d during clean traffic", moved)
	}
}
