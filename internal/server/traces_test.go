package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"obdrel"
)

// coldRuns makes the cold-path tests repeatable under -count=N: each
// run picks stage keys no earlier run in the same process has built.
var coldRuns atomic.Int64

// walkSpans visits every span in an unmarshaled ?explain=1 trace tree
// (maps, because the assertions are about the wire format clients see).
func walkSpans(node map[string]any, visit func(map[string]any)) {
	if node == nil {
		return
	}
	visit(node)
	children, _ := node["children"].([]any)
	for _, c := range children {
		if m, ok := c.(map[string]any); ok {
			walkSpans(m, visit)
		}
	}
}

func explainRoot(t *testing.T, out map[string]any) map[string]any {
	t.Helper()
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response has no trace: %v", out)
	}
	if id, _ := tr["trace_id"].(string); len(id) != 32 {
		t.Fatalf("trace_id = %v", tr["trace_id"])
	}
	root, ok := tr["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no root span: %v", tr)
	}
	return root
}

func spanAttr(sp map[string]any, key string) (any, bool) {
	attrs, _ := sp["attrs"].(map[string]any)
	v, ok := attrs[key]
	return v, ok
}

// TestExplainColdMaxVDD is the PR's acceptance probe: a cold
// /v1/maxvdd?explain=1 must show the whole causal chain — one span per
// bisection probe, per-stage cache provenance under the analyzer
// build, and the thermal solver's iteration telemetry.
func TestExplainColdMaxVDD(t *testing.T) {
	srv := newTestServer(t, Options{})
	// The voltage window is unique to this test AND to this run (the
	// shift keeps -count=N repeats cold): its probe voltages never land
	// on 1.2 V or another bisection's probes, so the voltage-keyed
	// thermal stage misses the process-wide stage cache and the trace
	// is guaranteed to contain a real thermal solve; grid=7 keeps the
	// correlation-side stages cold too.
	shift := float64(coldRuns.Add(1)) * 0.003
	url := srv.URL + fmt.Sprintf("/v1/maxvdd?design=C1&method=st_fast&ppm=10&target_hours=1000"+
		"&vlo=%.3f&vhi=%.3f&tolv=0.1&grid=7&mc_samples=50&stmc_samples=500&explain=1",
		1.05+shift, 1.43+shift)
	out := getJSON(t, url, http.StatusOK)
	if _, ok := out["max_vdd"].(float64); !ok {
		t.Fatalf("max_vdd = %v", out["max_vdd"])
	}
	root := explainRoot(t, out)

	probes, stageSpans, thermalRounds := 0, 0, 0.0
	var searchProbes any
	walkSpans(root, func(sp map[string]any) {
		name, _ := sp["name"].(string)
		switch {
		case name == "maxvdd.probe":
			probes++
			if _, ok := spanAttr(sp, "vdd_v"); !ok {
				t.Errorf("probe span without vdd_v: %v", sp["attrs"])
			}
		case name == "maxvdd.search":
			searchProbes, _ = spanAttr(sp, "probes")
		case strings.HasPrefix(name, "stage:"):
			stageSpans++
			if c, ok := spanAttr(sp, "cache"); !ok {
				t.Errorf("%s span without cache provenance", name)
			} else if s, _ := c.(string); s != "hit" && s != "miss" && s != "coalesced" && s != "cancelled" {
				t.Errorf("%s cache = %v", name, c)
			}
		case name == "thermal.coupled":
			r, _ := spanAttr(sp, "rounds")
			if f, ok := r.(float64); ok && f > thermalRounds {
				thermalRounds = f
			}
		}
	})
	if probes < 2 {
		t.Errorf("trace has %d maxvdd.probe spans, want ≥ 2", probes)
	}
	if sp, ok := searchProbes.(float64); !ok || int(sp) != probes {
		t.Errorf("maxvdd.search probes attr = %v, trace has %d probe spans", searchProbes, probes)
	}
	if stageSpans < len(obdrel.StageNames()) {
		t.Errorf("trace has %d stage spans, want ≥ %d", stageSpans, len(obdrel.StageNames()))
	}
	if !(thermalRounds >= 1) {
		t.Errorf("no thermal.coupled span with rounds ≥ 1")
	}
}

// TestExplainWarmLifetimeStageHits checks the substrate-reuse story
// end to end: once any server in the process has built a
// configuration, a second server (cold analyzer registry) building the
// same configuration must show every analysis stage it resolves as a
// cache hit.
func TestExplainWarmLifetimeStageHits(t *testing.T) {
	// grid=9 keeps this configuration's stage keys private to the test.
	q := "/v1/lifetime?design=C1&method=st_fast&ppm=10&grid=9&mc_samples=50&stmc_samples=500"

	warmer := newTestServer(t, Options{})
	getJSON(t, warmer.URL+q, http.StatusOK) // populates the shared stage cache

	srv := newTestServer(t, Options{})
	out := getJSON(t, srv.URL+q+"&explain=1", http.StatusOK)
	if out["cache"] != "miss" {
		t.Fatalf("fresh registry should miss: %v", out["cache"])
	}
	root := explainRoot(t, out)

	cache := map[string]string{} // stage span name → cache attr
	walkSpans(root, func(sp map[string]any) {
		name, _ := sp["name"].(string)
		if strings.HasPrefix(name, "stage:") {
			c, _ := spanAttr(sp, "cache")
			cache[name], _ = c.(string)
		}
	})
	if cache["stage:analyzer"] != "miss" {
		t.Errorf("stage:analyzer cache = %q, want miss", cache["stage:analyzer"])
	}
	// Construction resolves the prologue, the PCA and the chip. With
	// the chip and the PCA hits, nothing looks up BLOD or covariance
	// (their inputs), nor weibull and thermal, which only the reports
	// read.
	constructed := map[string]bool{obdrel.StageFloorplan: true, obdrel.StagePowerMap: true,
		obdrel.StagePCA: true, obdrel.StageChip: true}
	for _, s := range obdrel.StageNames() {
		want := "hit"
		if !constructed[s] {
			want = ""
		}
		if got := cache["stage:"+s]; got != want {
			t.Errorf("stage:%s cache = %q, want %q", s, got, want)
		}
	}
}

// TestDebugTracesRingBound drives more requests than the ring holds
// and checks /debug/traces stays bounded while still counting every
// trace, and that its filters work.
func TestDebugTracesRingBound(t *testing.T) {
	s := mustNew(Options{TraceBuffer: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	for i := 0; i < 10; i++ {
		getJSON(t, srv.URL+"/v1/designs", http.StatusOK)
	}
	getJSON(t, srv.URL+"/healthz", http.StatusOK) // not instrumented: must not mint a trace

	out := getJSON(t, dbg.URL+"/debug/traces", http.StatusOK)
	if ring := out["ring"].(float64); ring > 4 {
		t.Errorf("ring holds %v traces, want ≤ 4", ring)
	}
	if total := out["total_traces"].(float64); total != 10 {
		t.Errorf("total_traces = %v, want 10", total)
	}
	traces := out["traces"].([]any)
	if len(traces) == 0 || len(traces) > 4 {
		t.Fatalf("traces: %d entries, want 1–4", len(traces))
	}

	// Route filter: only /v1/designs traces survive.
	filtered := getJSON(t, dbg.URL+"/debug/traces?route=/v1/designs&n=2", http.StatusOK)
	ft := filtered["traces"].([]any)
	if len(ft) == 0 || len(ft) > 2 {
		t.Fatalf("filtered traces: %d entries, want 1–2", len(ft))
	}
	for _, tr := range ft {
		if name := tr.(map[string]any)["name"]; name != "/v1/designs" {
			t.Errorf("route filter leaked %v", name)
		}
	}
	// An absurd min_dur filters everything out.
	none := getJSON(t, dbg.URL+"/debug/traces?min_dur=1h", http.StatusOK)
	if m := none["matched"].(float64); m != 0 {
		t.Errorf("min_dur=1h matched %v traces, want 0", m)
	}
}

// TestTraceparentPropagation: a caller-supplied W3C traceparent is
// adopted as the trace identity and echoed on the response.
func TestTraceparentPropagation(t *testing.T) {
	srv := newTestServer(t, Options{})
	const tid = "11223344556677889900aabbccddeeff"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/designs?explain=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+tid+"-1234567890abcdef-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	echo := resp.Header.Get("traceparent")
	if !strings.Contains(echo, tid) {
		t.Fatalf("response traceparent %q does not carry caller trace id", echo)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	tr := out["trace"].(map[string]any)
	if tr["trace_id"] != tid {
		t.Fatalf("trace adopted id %v, want %s", tr["trace_id"], tid)
	}
}

// TestTracingDisabled: with DisableTracing the explain knob is inert
// and /debug/traces reports the feature off.
func TestTracingDisabled(t *testing.T) {
	s := mustNew(Options{DisableTracing: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	out := getJSON(t, srv.URL+"/v1/designs?explain=1", http.StatusOK)
	if _, ok := out["trace"]; ok {
		t.Fatalf("explain produced a trace with tracing disabled: %v", out)
	}
	getJSON(t, dbg.URL+"/debug/traces", http.StatusNotFound)
}

// TestUnknownRouteFoldedInMetrics: scanner noise must not mint new
// route label values.
func TestUnknownRouteFoldedInMetrics(t *testing.T) {
	srv := newTestServer(t, Options{})
	for _, p := range []string{"/v1/nope", "/wp-admin.php", "/v1/lifetime/extra"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", p, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), `obdreld_requests_total{route="other",code="404"} 3`) {
		t.Errorf("metrics did not fold unknown routes into \"other\":\n%s", text)
	}
	if strings.Contains(string(text), "wp-admin") {
		t.Errorf("metrics leaked a raw unknown path as a label")
	}
}
