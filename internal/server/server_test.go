package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"obdrel"
)

// cheap holds the query parameters that keep test builds fast; every
// request below appends it so the registry key is shared.
const cheap = "grid=6&mc_samples=50&stmc_samples=500"

// mustNew is NewE for options that carry no cluster membership, which
// never fail.
func mustNew(opts Options) *Server {
	s, err := NewE(opts)
	if err != nil {
		panic(err)
	}
	return s
}

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(mustNew(opts).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d; body: %s", url, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %v: %s", url, err, body)
	}
	return out
}

func TestHealthzAndDesigns(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := getJSON(t, srv.URL+"/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}
	d := getJSON(t, srv.URL+"/v1/designs", http.StatusOK)
	designs, ok := d["designs"].([]any)
	if !ok || len(designs) != 6 {
		t.Fatalf("designs: %v", d)
	}
}

func TestLifetimeQueryAndCaching(t *testing.T) {
	srv := newTestServer(t, Options{})
	url := srv.URL + "/v1/lifetime?design=C1&method=hybrid&ppm=10&" + cheap

	cold := getJSON(t, url, http.StatusOK)
	if cold["cache"] != "miss" {
		t.Fatalf("first query should miss: %v", cold)
	}
	life, ok := cold["lifetime_hours"].(float64)
	if !ok || !(life > 0) {
		t.Fatalf("lifetime_hours = %v", cold["lifetime_hours"])
	}

	warm := getJSON(t, url, http.StatusOK)
	if warm["cache"] != "hit" {
		t.Fatalf("second query should hit: %v", warm)
	}
	if warm["lifetime_hours"] != cold["lifetime_hours"] {
		t.Fatalf("warm answer differs: %v vs %v", warm["lifetime_hours"], cold["lifetime_hours"])
	}
	// Warm hybrid queries are table lookups; the acceptance bar is
	// ≤1 ms server-side.
	if qus, ok := warm["query_us"].(float64); !ok || qus > 1000 {
		t.Errorf("warm hybrid query took %v µs, want ≤1000", warm["query_us"])
	}
}

func TestFailureProbPOST(t *testing.T) {
	srv := newTestServer(t, Options{})
	body := `{"design":"C1","method":"st_fast","t":1e5,"config":{"grid":6,"mc_samples":50,"stmc_samples":500}}`
	resp, err := http.Post(srv.URL+"/v1/failureprob", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	p, ok := out["failure_prob"].(float64)
	if !ok || p < 0 || p > 1 {
		t.Fatalf("failure_prob = %v", out["failure_prob"])
	}
	if r := out["reliability"].(float64); r != 1-p {
		t.Fatalf("reliability %v != 1-p %v", r, 1-p)
	}
}

func TestBlocksRoute(t *testing.T) {
	srv := newTestServer(t, Options{})
	out := getJSON(t, srv.URL+"/v1/blocks?design=C1&"+cheap, http.StatusOK)
	blocks, ok := out["blocks"].([]any)
	if !ok || len(blocks) == 0 {
		t.Fatalf("blocks: %v", out)
	}
	b0 := blocks[0].(map[string]any)
	for _, k := range []string{"name", "mean_temp_c", "max_temp_c", "power_w", "alpha_h", "b_per_nm", "devices"} {
		if _, ok := b0[k]; !ok {
			t.Fatalf("block missing %q: %v", k, b0)
		}
	}
}

func TestMaxVDDRoute(t *testing.T) {
	srv := newTestServer(t, Options{})
	// A wide tolerance keeps the bisection to a handful of probes.
	url := srv.URL + "/v1/maxvdd?design=C1&method=hybrid&ppm=10&target_hours=1000&vlo=1.0&vhi=1.4&tolv=0.1&" + cheap
	out := getJSON(t, url, http.StatusOK)
	v, ok := out["max_vdd"].(float64)
	if !ok || v < 1.0 || v > 1.4 {
		t.Fatalf("max_vdd = %v", out["max_vdd"])
	}
	if probes, ok := out["probes"].(float64); !ok || probes < 1 {
		t.Fatalf("probes = %v", out["probes"])
	}
}

func TestBadInputs(t *testing.T) {
	srv := newTestServer(t, Options{})
	cases := []struct {
		name, url string
		status    int
	}{
		{"unknown design", "/v1/lifetime?design=C9", http.StatusNotFound},
		{"unknown method", "/v1/lifetime?design=C1&method=voodoo", http.StatusBadRequest},
		{"negative vdd", "/v1/lifetime?design=C1&vdd=-1&" + cheap, http.StatusBadRequest},
		{"NaN vdd", "/v1/lifetime?design=C1&vdd=NaN&" + cheap, http.StatusBadRequest},
		{"zero grid", "/v1/lifetime?design=C1&grid=0", http.StatusBadRequest},
		{"grid over cap", "/v1/lifetime?design=C1&grid=4096", http.StatusBadRequest},
		{"mc over cap", "/v1/lifetime?design=C1&mc_samples=1000000", http.StatusBadRequest},
		{"bad ppm", "/v1/lifetime?design=C1&ppm=2000000&" + cheap, http.StatusBadRequest},
		{"missing t", "/v1/failureprob?design=C1&" + cheap, http.StatusBadRequest},
		{"unparsable number", "/v1/lifetime?design=C1&vdd=banana", http.StatusBadRequest},
		{"bad target", "/v1/maxvdd?design=C1&target_hours=-5&" + cheap, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := getJSON(t, srv.URL+tc.url, tc.status)
			if msg, ok := out["error"].(string); !ok || msg == "" {
				t.Fatalf("no error message: %v", out)
			}
		})
	}

	resp, err := http.Post(srv.URL+"/v1/lifetime", "application/json", strings.NewReader(`{"unknown_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown JSON field: status %d, want 400", resp.StatusCode)
	}
}

func TestConcurrencyLimiter(t *testing.T) {
	block := make(chan struct{})
	s := mustNew(Options{MaxConcurrent: 1, Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		<-block
		return obdrel.NewAnalyzerCtx(ctx, d, cfg)
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer close(block)

	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/lifetime?design=C1&" + cheap)
		if err != nil {
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	// Wait for the slow request to occupy the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.InFlight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/v1/lifetime?design=C1&" + cheap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// healthz must stay reachable under saturation.
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", h.StatusCode)
	}
	block <- struct{}{}
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("slow request finished %d, want 200", code)
	}
}

func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := mustNew(Options{RequestTimeout: 50 * time.Millisecond, Build: func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		select {
		case <-release:
			return obdrel.NewAnalyzerCtx(ctx, d, cfg)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/lifetime?design=C1&" + cheap)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 504; body: %s", resp.StatusCode, body)
	}
	if s.metrics.TimedOut.Load() != 1 {
		t.Fatalf("timed-out counter %d, want 1", s.metrics.TimedOut.Load())
	}
}

func TestMetricsExposition(t *testing.T) {
	srv := newTestServer(t, Options{})
	getJSON(t, srv.URL+"/v1/lifetime?design=C1&method=hybrid&"+cheap, http.StatusOK)
	getJSON(t, srv.URL+"/v1/lifetime?design=C1&method=hybrid&"+cheap, http.StatusOK)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`obdreld_requests_total{route="/v1/lifetime",code="200"} 2`,
		`obdreld_request_seconds_bucket{route="/v1/lifetime"`,
		"obdreld_analyzer_cache_hits_total 1",
		"obdreld_analyzer_cache_misses_total 1",
		"obdreld_engine_builds_total 1",
		"obdreld_engine_build_seconds_total",
		"obdreld_in_flight_requests",
		"obdreld_analyzers_cached 1",
		"obdreld_uptime_seconds",
		`obdreld_stage_cache_hits_total{stage="analyzer"} 1`,
		`obdreld_stage_builds_total{stage="analyzer"} 1`,
		`obdreld_stage_build_seconds_total{stage="analyzer"}`,
		`obdreld_stage_cache_misses_total{stage="thermal"}`,
		`obdreld_stage_entries{stage="pca"}`,
		`obdreld_stage_bytes{stage="pca"}`,
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The pca stage holds one sized artifact, so its byte gauge is
	// non-zero; unsized stages report zero.
	for stage, positive := range map[string]bool{"pca": true, "thermal": false} {
		m := regexp.MustCompile(`obdreld_stage_bytes\{stage="` + stage + `"\} (\d+)`).FindSubmatch(text)
		if m == nil || (string(m[1]) != "0") != positive {
			t.Errorf("obdreld_stage_bytes for %s = %q, want positive=%v", stage, m, positive)
		}
	}
}

// TestAccessLog checks the structured per-request log line.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	srv := newTestServer(t, Options{AccessLog: &buf})
	getJSON(t, srv.URL+"/v1/designs", http.StatusOK)

	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log is not JSON: %q", line)
	}
	if entry["route"] != "/v1/designs" || entry["status"] != float64(200) {
		t.Fatalf("log entry: %v", entry)
	}
	if _, ok := entry["dur_us"]; !ok {
		t.Fatalf("log entry missing dur_us: %v", entry)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMixedTrafficConcurrent hammers every route at once against one
// server — the serving-layer analogue of the library's concurrency
// tests, meaningful under -race.
func TestMixedTrafficConcurrent(t *testing.T) {
	srv := newTestServer(t, Options{MaxConcurrent: 64})
	urls := []string{
		srv.URL + "/v1/lifetime?design=C1&method=hybrid&" + cheap,
		srv.URL + "/v1/lifetime?design=C1&method=st_fast&" + cheap,
		srv.URL + "/v1/failureprob?design=C1&method=hybrid&t=1e5&" + cheap,
		srv.URL + "/v1/blocks?design=C1&" + cheap,
		srv.URL + "/v1/designs",
		srv.URL + "/healthz",
		srv.URL + "/metrics",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := urls[(w+i)%len(urls)]
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
