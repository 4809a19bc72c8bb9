package server

import (
	"context"
	"encoding/json"
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

// failingKey is a configuration whose thermal stage runs away: C1 at
// 1.5 V on the 8×8 grid does not converge, inside /v1/maxvdd's default
// [0.9, 1.5] V bracket.
const failingKey = "design=C1&method=st_fast&ppm=10&vdd=1.5&grid=8&mc_samples=600&stmc_samples=3000"

// TestFailingKeyCostsOneBuildPerRequest pins what a deterministic build
// failure costs, given that nothing retries it or caches it: concurrent
// requests for the key coalesce into one thermal build, each later
// request rebuilds only the thermal stage (the stages it reads stay
// cached), every answer is a 500 with the failing stage's provenance,
// and a bisection that probes the key answers the same every time. The
// analyzer resolves thermal before covariance, PCA and BLOD, so a
// failing thermal stage never reaches those three.
func TestFailingKeyCostsOneBuildPerRequest(t *testing.T) {
	stages := pipeline.NewCache(64)
	gate := make(chan struct{})
	var builds atomic.Int64
	s := mustNew(Options{
		Stages:         stages,
		DisableTracing: true,
		Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
			builds.Add(1)
			<-gate
			return obdrel.NewAnalyzerCtxIn(ctx, stages, d, cfg)
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	url := srv.URL + "/v1/lifetime?" + failingKey
	check := func(resp *http.Response, out map[string]any) {
		t.Helper()
		msg, _ := out["error"].(string)
		if resp.StatusCode != http.StatusInternalServerError || out["class"] != "permanent" || !strings.Contains(msg, "stage thermal [") {
			t.Fatalf("failing key: status=%d body=%v, want 500 permanent from stage thermal", resp.StatusCode, out)
		}
	}

	// N concurrent requests join one flight, held open until all N
	// have missed the registry.
	const n = 8
	type answer struct {
		resp *http.Response
		out  map[string]any
	}
	answers := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, out := getResp(t, url, nil)
			answers <- answer{resp, out}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); s.reg.Stats().Misses < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the registry", s.reg.Stats().Misses, n)
		}
	}
	close(gate)
	for i := 0; i < n; i++ {
		a := <-answers
		check(a.resp, a.out)
	}
	if b, th := builds.Load(), stages.Stat("thermal").Failures; b != 1 || th != 1 {
		t.Fatalf("%d concurrent requests ran %d analyzer builds and %d failed thermal builds, want 1 and 1", n, b, th)
	}

	for _, stage := range []string{"floorplan", "powermap", "thermalop"} {
		if got := stages.Stat(stage).Builds; got != 1 {
			t.Errorf("stage %s built %d times, want 1", stage, got)
		}
	}

	// Each later request rebuilds the thermal stage alone: no other
	// stage misses again.
	before := map[string]int64{}
	for _, st := range stages.Snapshot() {
		before[st.Stage] = st.Misses
	}
	const later = 5
	for i := 0; i < later; i++ {
		check(getResp(t, url, nil))
	}
	if b := builds.Load(); b != 1+later {
		t.Fatalf("after %d more requests: %d analyzer builds, want %d", later, b, 1+later)
	}
	for _, st := range stages.Snapshot() {
		want := before[st.Stage]
		if st.Stage == "thermal" {
			want += later
		}
		if st.Misses != want {
			t.Errorf("stage %s: %d misses after %d more requests, want %d", st.Stage, st.Misses, later, want)
		}
	}
	if st := stages.Stat("thermal"); st.Builds != 0 || st.Failures != 1+later {
		t.Errorf("the runaway thermal stage recorded %d successful and %d failed builds, want 0 and %d", st.Builds, st.Failures, 1+later)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("obdreld_stage_build_failures_total{stage=%q} %d\n", "thermal", 1+later); !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", want)
	}

	// A bisection whose top probe is the failing key answers the same
	// on every run, well past any count of consecutive failures.
	mv := srv.URL + "/v1/maxvdd?design=C1&method=st_fast&ppm=10&target_hours=1e5&vlo=0.9&vhi=1.5&grid=8&mc_samples=600&stmc_samples=3000"
	first := getJSON(t, mv, http.StatusOK)
	for i := 1; i < 7; i++ {
		out := getJSON(t, mv, http.StatusOK)
		if out["max_vdd"] != first["max_vdd"] || out["probes"] != first["probes"] {
			t.Fatalf("maxvdd run %d: max_vdd=%v probes=%v, run 0: max_vdd=%v probes=%v",
				i, out["max_vdd"], out["probes"], first["max_vdd"], first["probes"])
		}
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
		"obdreld_admission_rejected_total",
		"obdreld_queue_timeouts_total",
		"obdreld_drain_rejected_total",
		"obdreld_fault_injected_total",
		"obdreld_queue_depth",
		"obdreld_draining",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(string(body), "obdreld_cluster_") {
		t.Error("cluster-mode families on a node outside cluster mode")
	}
}

// TestChaosOverHTTP drives the resilience stack through the X-Fault
// header the way an operator's chaos run would, in four phases:
//
//   - churn: every request misses the registry (a fresh seed knob) and
//     carries its own seeded 10% registry.build error rule, so the
//     injected failures are the same on every run; each one reaches its
//     client as a 503 the client may retry, and every other request
//     answers 200;
//   - scope: a poisoned design fails while a healthy design keeps
//     answering 200;
//   - recovery: the first clean request after the faults stop answers
//     200, since a failed build is never cached;
//   - leakage: clean traffic moves no injected-fault counter.
func TestChaosOverHTTP(t *testing.T) {
	s := mustNew(Options{
		Stages:         pipeline.NewCache(64),
		DisableTracing: true,
		FaultHeader:    true,
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
	codes := map[int]int{}
	for i := 0; i < churn; i++ {
		resp, out := getResp(t, lifetime("C1", 1000+i), map[string]string{"X-Fault": fmt.Sprintf("seed=%d,registry.build:error:0.1", i+1)})
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusServiceUnavailable && (out["class"] != "transient" || resp.Header.Get("Retry-After") == "") {
			t.Errorf("churn: injected fault answered class=%v Retry-After=%q, want transient with Retry-After", out["class"], resp.Header.Get("Retry-After"))
		}
	}
	// The seeded decision streams fire exactly 13 faults, one build
	// each, and each one reaches its client.
	const faults = 13
	if injected := fault.InjectedTotal() - injected0; injected != faults {
		t.Errorf("churn: %d faults injected, want %d", injected, faults)
	}
	if codes[http.StatusServiceUnavailable] != faults || codes[http.StatusOK] != churn-faults || len(codes) != 2 {
		t.Errorf("churn: status counts %v, want %d×503 and %d×200", codes, faults, churn-faults)
	}

	healthy, poisoned := lifetime("C1", 1), lifetime("C2", 999001)
	if code := status(healthy, ""); code != http.StatusOK {
		t.Fatalf("healthy warmup: status %d", code)
	}
	for i := 0; i < 10; i++ {
		if code := status(poisoned, "registry.build(C2):perm:1"); code != http.StatusInternalServerError {
			t.Fatalf("scope: poisoned design answered %d, want 500", code)
		}
		if code := status(healthy, ""); code != http.StatusOK {
			t.Fatalf("scope: healthy design answered %d beside the poisoned one", code)
		}
	}

	if code := status(poisoned, ""); code != http.StatusOK {
		t.Fatalf("recovery: first clean request for the poisoned design answered %d", code)
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
