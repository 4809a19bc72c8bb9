package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"obdrel/internal/artifact"
	"obdrel/internal/obs"
	"obdrel/internal/pipeline"
)

// TestCrossNodeTraceSingleTree is the cross-node tracing contract: a
// peer cache-fill running under a live trace propagates the trace to
// the owner as a W3C traceparent, the owner ADOPTS it (same trace id
// in its own ring, rooted at peer.serve), and the owner's finished
// span subtree comes back in the response header and is grafted under
// the fetcher's artifact.fetch span — ONE tree spanning both nodes,
// with per-node provenance attrs.
func TestCrossNodeTraceSingleTree(t *testing.T) {
	lA, lB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lA), httptest.NewServer(lB)
	defer tsA.Close()
	defer tsB.Close()
	peers := []string{tsA.URL, tsB.URL}

	cacheA, cacheB := pipeline.NewCache(4), pipeline.NewCache(4)
	sA, err := NewE(Options{Stages: cacheA, ArtifactDir: t.TempDir(), Peers: peers, Self: tsA.URL, WarmLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sA.Close)
	sB, err := NewE(Options{Stages: cacheB, ArtifactDir: t.TempDir(), Peers: peers, Self: tsB.URL, WarmLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Close)
	lA.h.Store(sA.Handler())
	lB.h.Store(sB.Handler())

	ctx := context.Background()
	key := key32('d')
	if _, _, err := pipeline.Get(ctx, cacheA, clStage, key, func(context.Context) (int64, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}

	// Node B resolves the same key under a live trace, the way
	// instrument roots one for a /v1 request.
	tctx, root := sB.tracer.StartTrace(ctx, "/v1/test", "", "")
	if root == nil {
		t.Fatal("tracing unexpectedly disabled")
	}
	v, res, err := pipeline.Get(tctx, cacheB, clStage, key, func(context.Context) (int64, error) {
		return 0, errors.New("follower must not build")
	})
	if err != nil || v != 7 || res.Source != pipeline.SourcePeer {
		t.Fatalf("peer fill = (%d, %q, %v), want 7 via peer", v, res.Source, err)
	}
	out := root.EndTrace()
	if out == nil {
		t.Fatal("EndTrace returned nil")
	}

	var fetch, serve *obs.SpanOut
	out.Root.Walk(func(s *obs.SpanOut) {
		switch s.Name {
		case "artifact.fetch":
			fetch = s
		case "peer.serve":
			serve = s
		}
	})
	if fetch == nil {
		t.Fatalf("no artifact.fetch span in tree: %+v", out.Root)
	}
	if serve == nil {
		t.Fatalf("no grafted peer.serve span in tree: %+v", out.Root)
	}
	grafted := false
	for _, c := range fetch.Children {
		if c == serve {
			grafted = true
		}
	}
	if !grafted {
		t.Fatal("peer.serve is not a child of artifact.fetch")
	}
	// Per-node provenance: the grafted subtree says which node served it.
	if node, _ := serve.Attrs["node"].(string); node != tsA.URL {
		t.Fatalf("peer.serve node attr = %v, want %s", serve.Attrs["node"], tsA.URL)
	}
	if held, _ := serve.Attrs["held"].(bool); !held {
		t.Fatalf("peer.serve held attr = %v, want true", serve.Attrs["held"])
	}
	// Rebase: the grafted root sits inside the local span's timeline.
	if serve.StartUs < fetch.StartUs {
		t.Fatalf("grafted span starts (%v) before its local parent (%v)", serve.StartUs, fetch.StartUs)
	}

	// Adoption: node A's own ring holds the SAME trace id, rooted at
	// peer.serve — grep either node's traces by one id and find the
	// same request.
	adopted := false
	for _, tr := range sA.tracer.Recent(0) {
		if tr.TraceID == out.TraceID && tr.Name == "peer.serve" {
			adopted = true
		}
	}
	if !adopted {
		t.Fatalf("node A never adopted trace %s (ring: %d traces)", out.TraceID, len(sA.tracer.Recent(0)))
	}
}

// TestPeerSpanSubtreeNullChild: a peer's span-subtree header is the
// peer's bytes, and one holding a null span costs the fetcher the
// graft, never its trace: the fill lands, the trace ends without a
// panic and marshals, and no part of the bad subtree is grafted.
func TestPeerSpanSubtreeNullChild(t *testing.T) {
	key := key32('n')
	sealed, err := artifact.Encode(clStage, key, int64(3))
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(spanSubtreeHeader, `{"name":"peer.serve","children":[null]}`)
		w.Write(sealed)
	}))
	defer peer.Close()
	const self = "http://127.0.0.1:1"
	cache := pipeline.NewCache(4)
	s, err := NewE(Options{Stages: cache, Peers: []string{self, peer.URL}, Self: self, WarmLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ctx, root := s.tracer.StartTrace(context.Background(), "/v1/test", "", "")
	v, res, err := pipeline.Get(ctx, cache, clStage, key, func(context.Context) (int64, error) {
		return 0, errors.New("follower must not build")
	})
	if err != nil || v != 3 || res.Source != pipeline.SourcePeer {
		t.Fatalf("peer fill = (%d, %q, %v), want 3 via peer", v, res.Source, err)
	}
	out := root.EndTrace()
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("trace does not marshal: %v", err)
	}
	fetched := false
	out.Root.Walk(func(sp *obs.SpanOut) {
		fetched = fetched || sp.Name == "artifact.fetch"
		if sp.Name == "peer.serve" {
			t.Error("grafted a subtree that holds a null span")
		}
	})
	if !fetched {
		t.Fatal("no artifact.fetch span in the trace")
	}
}

// FuzzPeerSpanGraft feeds the fetcher's span-subtree decoding the
// bytes a peer can put in its X-Obdrel-Span header, grafts the result
// under a fetch span and ends the trace, as fetchFrom and instrument
// do. It must never panic, and the exported trace must marshal.
func FuzzPeerSpanGraft(f *testing.F) {
	tr := obs.NewTracer(obs.Options{RingSize: 1})
	f.Fuzz(func(t *testing.T, h []byte) {
		ctx, root := tr.StartTrace(context.Background(), "/v1/test", "", "")
		_, fetch := obs.StartSpan(ctx, "artifact.fetch")
		fetch.AttachRemote(peerSpanSubtree(string(h)))
		fetch.End()
		if _, err := json.Marshal(root.EndTrace()); err != nil {
			t.Fatalf("trace does not marshal: %v", err)
		}
	})
}

// TestClusterStatusDegradedFanOut asks one node for the fleet view
// with a dead peer in the membership: the answer is still 200, the
// dead peer is reported (not fatal), the live nodes' histograms merge
// into fleet quantiles, and the ring shares cover the whole key space.
func TestClusterStatusDegradedFanOut(t *testing.T) {
	tsDead := httptest.NewServer(http.NotFoundHandler())
	deadURL := tsDead.URL
	tsDead.Close() // connection refused from here on

	lA, lB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lA), httptest.NewServer(lB)
	defer tsA.Close()
	defer tsB.Close()
	peers := []string{deadURL, tsA.URL, tsB.URL}

	mk := func(self string) *Server {
		s, err := NewE(Options{
			Stages: pipeline.NewCache(4), Peers: peers, Self: self,
			PeerTimeout: 300 * time.Millisecond, WarmLimit: -1, DisableTracing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	sA, sB := mk(tsA.URL), mk(tsB.URL)
	hA, hB := sA.Handler(), sB.Handler()
	lA.h.Store(hA)
	lB.h.Store(hB)

	// Traffic on both nodes so the merged histograms hold samples.
	for i, h := range []http.Handler{hA, hA, hB} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/designs", nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("designs request %d = %d", i, rw.Code)
		}
	}

	rw := httptest.NewRecorder()
	hA.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("cluster status = %d (a degraded fleet is an answer, not an error): %s", rw.Code, rw.Body.String())
	}
	var out struct {
		Self      string `json:"self"`
		NodesOK   int    `json:"nodes_ok"`
		NodesDead int    `json:"nodes_dead"`
		Degraded  bool   `json:"degraded"`
		Nodes     []struct {
			Node string `json:"node"`
			Err  string `json:"error"`
		} `json:"nodes"`
		Fleet struct {
			Overall struct {
				Requests int64   `json:"requests"`
				P50Us    float64 `json:"p50_us"`
				P99Us    float64 `json:"p99_us"`
				MaxUs    float64 `json:"max_us"`
			} `json:"overall"`
			Routes map[string]struct {
				Requests int64 `json:"requests"`
			} `json:"routes"`
		} `json:"fleet"`
		Ring map[string]float64 `json:"ring"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Self != tsA.URL {
		t.Fatalf("self = %q", out.Self)
	}
	if out.NodesOK != 2 || out.NodesDead != 1 || !out.Degraded {
		t.Fatalf("ok=%d dead=%d degraded=%t, want 2/1/true", out.NodesOK, out.NodesDead, out.Degraded)
	}
	if len(out.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(out.Nodes))
	}
	deadReported := false
	for _, n := range out.Nodes {
		if n.Node == deadURL {
			deadReported = n.Err != ""
		}
	}
	if !deadReported {
		t.Fatalf("dead peer %s not reported with its error: %+v", deadURL, out.Nodes)
	}
	// The three /v1/designs requests merge across the two live nodes.
	if got := out.Fleet.Routes["/v1/designs"].Requests; got != 3 {
		t.Fatalf("fleet /v1/designs requests = %d, want 3", got)
	}
	if out.Fleet.Overall.Requests < 3 || out.Fleet.Overall.P50Us <= 0 || out.Fleet.Overall.MaxUs <= 0 {
		t.Fatalf("fleet overall quantiles = %+v", out.Fleet.Overall)
	}
	// Ring shares: every member (the dead one included — membership is
	// static) holds an arc, and the arcs tile the key space.
	if len(out.Ring) != 3 {
		t.Fatalf("ring = %v, want 3 nodes", out.Ring)
	}
	var sum float64
	for _, share := range out.Ring {
		if share <= 0 {
			t.Fatalf("ring share not positive: %v", out.Ring)
		}
		sum += share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ring shares sum to %v, want 1", sum)
	}
}

// TestRouteLabelClosedSet is the metrics-cardinality contract:
// /v1/artifact requests carry their own label (not "other"), the
// cluster ops routes carry theirs, unknown paths fold to "other", and
// NOTHING outside the registered set ever appears — in metrics or in
// the access log.
func TestRouteLabelClosedSet(t *testing.T) {
	var logBuf bytes.Buffer
	s := mustNew(Options{Stages: pipeline.NewCache(4), DisableTracing: true, AccessLog: &logBuf})
	h := s.Handler()

	cases := []struct {
		path  string
		label string
	}{
		{"/v1/artifact/" + clStage + "/" + key32('q'), "/v1/artifact"},
		{"/v1/artifact/" + clStage + "/" + key32('q'), "/v1/artifact"},
		{"/v1/artifact/malformed", "/v1/artifact"},
		{"/v1/cluster/stats", "/v1/cluster/stats"},
		{"/v1/cluster/status", "/v1/cluster/status"},
		{"/v1/designs", "/v1/designs"},
		{"/nonsense", "other"},
		{"/v1/nonsense", "other"},
		{"/v1/artifact" + strings.Repeat("x", 8), "other"}, // prefix lookalike misses the mux
	}
	want := map[string]int64{}
	for _, tc := range cases {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, tc.path, nil))
		want[tc.label]++
	}

	_, reqs := s.metrics.RouteSnapshots()
	for label, n := range want {
		if reqs[label] != n {
			t.Errorf("route %q observed %d requests, want %d (all: %v)", label, reqs[label], n, reqs)
		}
	}
	allowed := map[string]bool{
		"/healthz": true, "/readyz": true, "/metrics": true,
		"/v1/designs": true, "/v1/lifetime": true, "/v1/failureprob": true,
		"/v1/maxvdd": true, "/v1/blocks": true, "/v1/batch": true,
		"/v1/artifact": true, "/v1/cluster/stats": true, "/v1/cluster/status": true,
		"other": true,
	}
	for label := range reqs {
		if !allowed[label] {
			t.Errorf("metrics grew an unregistered route label %q", label)
		}
	}
	// The access log carries the same labels: every line's route is in
	// the closed set, and the artifact requests log under their own.
	sawArtifact := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry struct {
			Route string `json:"route"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("unparsable access-log line %q: %v", line, err)
		}
		if entry.Route == "/v1/artifact" {
			sawArtifact = true
		}
	}
	if !sawArtifact {
		t.Error("no access-log line with route /v1/artifact")
	}
}

// TestRecordProvenance drives the same request twice and checks the
// record sees the tier walk: one record per request, the cache field
// going built → mem, peer_fills present, and the first record's
// stages, build time and cost deltas filled in.
func TestRecordProvenance(t *testing.T) {
	var logBuf bytes.Buffer
	s := mustNew(Options{Stages: pipeline.NewCache(8), DisableTracing: true, AccessLog: &logBuf})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	url := srv.URL + "/v1/lifetime?design=C1&method=hybrid&ppm=10&" + cheap
	for i := 0; i < 2; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d", i, resp.StatusCode)
		}
	}

	recs := readRecords(t, logBuf.String())
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2:\n%s", len(recs), logBuf.String())
	}
	first, second := recs[0], recs[1]
	if first.Route != "/v1/lifetime" || first.Status != http.StatusOK || first.PeerFills != 0 {
		t.Fatalf("first record = %+v", first)
	}
	if first.Cache != "built" || first.StageBuilds < 1 || first.BuildMs <= 0 {
		t.Fatalf("first record missed the build: %+v", first)
	}
	foundAnalyzer := false
	for _, v := range first.Stages {
		if v.Stage == "analyzer" && v.Source == "built" {
			foundAnalyzer = true
		}
	}
	if !foundAnalyzer {
		t.Fatalf("first record stages = %+v, want an analyzer build", first.Stages)
	}
	if second.Cache != "mem" || second.StageBuilds != 0 {
		t.Fatalf("second record = %+v, want a mem hit", second)
	}
	if first.DurUs <= 0 || first.QueueWaitUs < 0 {
		t.Fatalf("first record timing = dur %d queue %d", first.DurUs, first.QueueWaitUs)
	}
	// The first request builds an analyzer, which costs CPU time
	// wherever the process's CPU time can be read.
	if processCPUUs() > 0 && first.ProcCPUUs <= 0 {
		t.Fatalf("first record has no CPU delta: %+v", first)
	}
}

// TestRecordDisabledZeroAlloc proves the path with no AccessLog: a
// request observed from begin to observe, metrics and SLO included,
// builds no record, reads no cost counters and allocates nothing.
func TestRecordDisabledZeroAlloc(t *testing.T) {
	s := mustNew(Options{Stages: pipeline.NewCache(4), DisableTracing: true})
	req := httptest.NewRequest(http.MethodGet, "/v1/designs", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		ob := s.begin()
		s.observe("/v1/designs", req, http.StatusOK, &ob)
	})
	if allocs != 0 {
		t.Fatalf("record path with no AccessLog allocates %.1f/op, want 0", allocs)
	}
	if cacheProvenance(nil) != "none" {
		t.Fatal("a request without a collector must report cache none")
	}
}

// TestServerSLOEndToEnd wires objectives through Options and checks
// /debug/slo and the obdreld_slo_* metric families reflect induced
// errors — and that a server without objectives exposes neither.
func TestServerSLOEndToEnd(t *testing.T) {
	objs, err := obs.ParseSLOSpec("/v1/designs:availability:99")
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(Options{Stages: pipeline.NewCache(4), DisableTracing: true, FaultHeader: true, SLOs: objs})
	h := s.Handler()

	for i := 0; i < 9; i++ {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/designs", nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("designs = %d", rw.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/designs", nil)
	req.Header.Set("X-Fault", "server.handler:error")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code < 500 {
		t.Fatalf("injected fault answered %d", rw.Code)
	}

	// /debug/slo: enabled, totals 9 good / 1 bad, 1m burn above 1.
	rw = httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/debug/slo = %d", rw.Code)
	}
	var doc struct {
		Enabled    bool                  `json:"enabled"`
		Objectives []obs.ObjectiveReport `json:"objectives"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled || len(doc.Objectives) != 1 {
		t.Fatalf("slo doc = %+v", doc)
	}
	rep := doc.Objectives[0]
	if rep.Good != 9 || rep.Bad != 1 {
		t.Fatalf("slo totals good=%d bad=%d, want 9/1", rep.Good, rep.Bad)
	}
	if burn := rep.Windows[0].Burn; burn <= 1 {
		t.Fatalf("1m burn = %v, want > 1 (10%% errors against a 1%% budget)", burn)
	}

	// Metric families present with the objective's labels.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		`obdreld_slo_target{route="/v1/designs",slo="availability"} 0.99`,
		`obdreld_slo_good_total{route="/v1/designs",slo="availability"} 9`,
		`obdreld_slo_bad_total{route="/v1/designs",slo="availability"} 1`,
		`obdreld_slo_burn_rate{route="/v1/designs",slo="availability",window="1m0s"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A server without objectives: /debug/slo answers disabled, and the
	// exposition stays byte-free of slo families.
	s2 := mustNew(Options{Stages: pipeline.NewCache(4), DisableTracing: true})
	rw = httptest.NewRecorder()
	s2.DebugHandler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
	if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), `"enabled": false`) {
		t.Fatalf("/debug/slo without objectives = %d %s", rw.Code, rw.Body.String())
	}
	rw = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rw.Body.String(), "obdreld_slo_") {
		t.Fatal("slo families leaked into a non-SLO exposition")
	}
}
