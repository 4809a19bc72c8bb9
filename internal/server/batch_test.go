package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"obdrel"
	"obdrel/internal/obs"
	"obdrel/internal/pipeline"
)

// postBatch posts a JSON batch body and decodes the JSONL stream into
// (header, item lines, trailer). It fails the test on a non-200
// status or an unparsable stream.
func postBatch(t *testing.T, url, body string) (map[string]any, []map[string]any, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST batch = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream too short: %v", lines)
	}
	header, trailer := lines[0], lines[len(lines)-1]
	if header["stream"] != "obdrel-batch/1" {
		t.Fatalf("header = %v", header)
	}
	if _, ok := trailer["done"]; !ok {
		t.Fatalf("last line is not a trailer: %v", trailer)
	}
	return header, lines[1 : len(lines)-1], trailer
}

const cheapCfg = `{"grid":6,"mc_samples":50,"stmc_samples":500}`

func batchBody(items ...string) string {
	return "[" + strings.Join(items, ",") + "]"
}

func TestBatchSameDesignSweepGroupsOnce(t *testing.T) {
	// A private stage cache makes the build counts this sweep's own.
	stages := pipeline.NewCache(64)
	srv := newTestServer(t, Options{Stages: stages})
	var items []string
	for i := 0; i < 12; i++ {
		items = append(items, fmt.Sprintf(
			`{"id":"item-%d","design":"C1","method":"st_fast","ppm":%d,"config":%s}`, i, i+1, cheapCfg))
	}
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(items...))
	if len(lines) != 12 {
		t.Fatalf("got %d item lines, want 12", len(lines))
	}
	for i, ln := range lines {
		if int(ln["i"].(float64)) != i {
			t.Fatalf("line %d has index %v — input order violated", i, ln["i"])
		}
		if ln["ok"] != true {
			t.Fatalf("line %d failed: %v", i, ln)
		}
		if ln["id"] != fmt.Sprintf("item-%d", i) {
			t.Fatalf("line %d id = %v", i, ln["id"])
		}
		res := ln["result"].(map[string]any)
		if life, ok := res["lifetime_hours"].(float64); !ok || !(life > 0) {
			t.Fatalf("line %d result: %v", i, res)
		}
	}
	// All 12 items share one (design, config): one group, 11 reuses.
	if trailer["groups"].(float64) != 1 || trailer["reused"].(float64) != 11 {
		t.Fatalf("trailer = %v, want groups=1 reused=11", trailer)
	}
	if trailer["done"] != true || trailer["ok"].(float64) != 12 {
		t.Fatalf("trailer = %v", trailer)
	}
	// One group means one substrate: every pipeline stage built once.
	for _, stage := range obdrel.StageNames() {
		if n := stages.Stat(stage).Builds; n != 1 {
			t.Errorf("stage %s built %d times for one group, want 1", stage, n)
		}
	}
}

// TestBatchStreamSpanBudget bounds what one traced fleet stream costs
// the trace ring: the server traces every request by default and the
// ring holds a fixed number of traces, so the span count per stream is
// its memory footprint. 100 st_fast items over C1–C6 × four fresh VDDs
// (24 groups, each a cold thermal solve) must export at most 500 spans.
func TestBatchStreamSpanBudget(t *testing.T) {
	tracer := obs.NewTracer(obs.Options{})
	// A private stage cache keeps every group's thermal solve cold.
	srv := newTestServer(t, Options{Tracer: tracer, Stages: pipeline.NewCache(64)})
	designs := []string{"C1", "C2", "C3", "C4", "C5", "C6"}
	vdds := []float64{1.0131, 1.0917, 1.1733, 1.2519}
	groups := len(designs) * len(vdds)
	var items []string
	for i := 0; i < 100; i++ {
		cfg := fmt.Sprintf(`{"grid":6,"vdd":%g}`, vdds[i/len(designs)%len(vdds)])
		q := fmt.Sprintf(`"query":"lifetime","ppm":%d`, 1+i)
		if i/groups%2 == 1 {
			q = fmt.Sprintf(`"query":"failureprob","t":%d`, 10000*(1+i))
		}
		items = append(items, fmt.Sprintf(`{"design":%q,"method":"st_fast",%s,"config":%s}`,
			designs[i%len(designs)], q, cfg))
	}
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(items...))
	if len(lines) != 100 || trailer["errors"].(float64) != 0 || trailer["groups"].(float64) != float64(groups) {
		t.Fatalf("stream: %d lines, trailer %v", len(lines), trailer)
	}
	var spans int
	for _, tr := range tracer.Recent(0) {
		if tr.Name == "/v1/batch" {
			spans = tr.SpanCount + tr.Dropped
		}
	}
	if spans == 0 || spans > 500 {
		t.Errorf("batch stream exported %d spans, want 1–500", spans)
	}
}

func TestBatchPerItemErrorsDontAbortStream(t *testing.T) {
	srv := newTestServer(t, Options{})
	items := []string{
		fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":10,"config":%s}`, cheapCfg),
		fmt.Sprintf(`{"design":"NOPE","method":"st_fast","ppm":10,"config":%s}`, cheapCfg),
		fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":-1,"config":%s}`, cheapCfg),
		fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":20,"config":%s}`, cheapCfg),
	}
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(items...))
	if len(lines) != 4 {
		t.Fatalf("got %d item lines, want 4", len(lines))
	}
	if lines[0]["ok"] != true || lines[3]["ok"] != true {
		t.Fatalf("valid items must survive their neighbours failing: %v", lines)
	}
	if lines[1]["ok"] != false || !strings.Contains(lines[1]["error"].(string), "unknown design") {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if lines[2]["ok"] != false || !strings.Contains(lines[2]["error"].(string), "ppm") {
		t.Fatalf("line 2 = %v", lines[2])
	}
	for _, i := range []int{1, 2} {
		if lines[i]["class"] != "permanent" {
			t.Fatalf("line %d class = %v, want permanent", i, lines[i]["class"])
		}
	}
	if trailer["done"] != true || trailer["ok"].(float64) != 2 || trailer["errors"].(float64) != 2 {
		t.Fatalf("trailer = %v", trailer)
	}
}

func TestBatchWindowing(t *testing.T) {
	srv := newTestServer(t, Options{})
	var items []string
	for i := 0; i < 7; i++ {
		items = append(items, fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":%d,"config":%s}`, i+1, cheapCfg))
	}
	header, lines, trailer := postBatch(t, srv.URL+"/v1/batch?window=3", batchBody(items...))
	if header["window"].(float64) != 3 {
		t.Fatalf("header window = %v", header["window"])
	}
	if len(lines) != 7 || trailer["windows"].(float64) != 3 {
		t.Fatalf("lines=%d trailer=%v, want 7 items over 3 windows", len(lines), trailer)
	}
}

func TestBatchMalformedMidStreamKeepsPriorResults(t *testing.T) {
	srv := newTestServer(t, Options{})
	body := fmt.Sprintf(`[{"design":"C1","method":"st_fast","ppm":10,"config":%s},{"design":}]`, cheapCfg)
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", body)
	if len(lines) != 1 || lines[0]["ok"] != true {
		t.Fatalf("the valid item before the malformed one must still answer: %v", lines)
	}
	if trailer["done"] != false || !strings.Contains(trailer["error"].(string), "bad JSON") {
		t.Fatalf("trailer = %v, want done=false with a bad-JSON error", trailer)
	}
}

// TestBatchRejectsUnknownItemField: items decode strictly, as unary
// POST bodies do. A typo'd "ppn" makes its item malformed instead of
// answering at the default 10 ppm: the items before it still answer,
// and the trailer reads done:false naming the item and the field.
func TestBatchRejectsUnknownItemField(t *testing.T) {
	srv := newTestServer(t, Options{})
	body := batchBody(
		fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":1,"config":%s}`, cheapCfg),
		fmt.Sprintf(`{"design":"C1","method":"st_fast","ppn":1,"config":%s}`, cheapCfg))
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", body)
	if len(lines) != 1 || lines[0]["ok"] != true {
		t.Fatalf("want only the valid first item answered: %v", lines)
	}
	msg, _ := trailer["error"].(string)
	if trailer["done"] != false || !strings.Contains(msg, "item 1") || !strings.Contains(msg, `"ppn"`) {
		t.Fatalf("trailer = %v, want done=false naming item 1 and \"ppn\"", trailer)
	}
}

// TestBatchStreamInRequestEnvelope: /v1/batch runs inside the same
// envelope as every unary route. Its one record carries cache
// provenance, peer_fills and the stage builds, and a "*" objective
// counts it.
func TestBatchStreamInRequestEnvelope(t *testing.T) {
	var logBuf syncBuffer
	objs, err := obs.ParseSLOSpec("*:availability:99")
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(Options{
		Stages: pipeline.NewCache(16), DisableTracing: true, AccessLog: &logBuf, SLOs: objs,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	postBatch(t, srv.URL+"/v1/batch", batchBody(
		fmt.Sprintf(`{"design":"C2","method":"st_fast","ppm":7,"config":%s}`, cheapCfg)))

	recs := readRecords(t, logBuf.String())
	if len(recs) != 1 {
		t.Fatalf("%d records, want the stream's one:\n%s", len(recs), logBuf.String())
	}
	if rec := recs[0]; rec.Route != "/v1/batch" || rec.Status != http.StatusOK ||
		rec.Cache != "built" || rec.StageBuilds < 1 || rec.PeerFills != 0 {
		t.Errorf("record = %+v, want a built /v1/batch stream with no peer fills", rec)
	}
	if !strings.Contains(logBuf.String(), `"peer_fills":0`) {
		t.Errorf("record %q does not carry peer_fills", logBuf.String())
	}
	if reps := s.SLOReport(); len(reps) != 1 || reps[0].Good != 1 {
		t.Errorf("\"*\" objective = %+v, want the stream counted good", reps)
	}
}

func TestBatchRejectsNonArrayBody(t *testing.T) {
	srv := newTestServer(t, Options{})
	for _, body := range []string{`{"items":[]}`, `42`, ``} {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/batch?window=0", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window=0: status %d, want 400", resp.StatusCode)
	}
}

func TestBatchItemCap(t *testing.T) {
	srv := newTestServer(t, Options{BatchMaxItems: 3})
	var items []string
	for i := 0; i < 5; i++ {
		items = append(items, fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":10,"config":%s}`, cheapCfg))
	}
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(items...))
	if len(lines) != 3 {
		t.Fatalf("got %d item lines, want the 3 under the cap", len(lines))
	}
	if trailer["done"] != false || !strings.Contains(trailer["error"].(string), "cap") {
		t.Fatalf("trailer = %v, want done=false with the cap error", trailer)
	}
}

// TestBatchTraceMatchesLibrary is the replay-consistency gate at test
// scale: a trace item evaluated through /v1/batch must answer
// bit-identically to the same trace replayed through the library
// directly, because the server derives its config the same way and
// JSON round-trips float64 exactly.
func TestBatchTraceMatchesLibrary(t *testing.T) {
	srv := newTestServer(t, Options{})
	trace := `[{"hours":4000,"vdd":1.0,"temp_c":55},{"hours":3000,"vdd":1.1,"temp_c":78},{"hours":1000,"vdd":1.2,"activity_scale":1}]`
	item := fmt.Sprintf(`{"query":"trace","design":"C1","method":"st_fast","ppm":10,"trace":%s,"config":%s}`, trace, cheapCfg)
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(item))
	if len(lines) != 1 || lines[0]["ok"] != true {
		t.Fatalf("trace item failed: %v", lines)
	}
	if trailer["done"] != true {
		t.Fatalf("trailer = %v", trailer)
	}
	got := lines[0]["result"].(map[string]any)["lifetime_hours"].(float64)

	cfg := obdrel.DefaultConfig()
	cfg.GridNx, cfg.GridNy = 6, 6
	cfg.MCSamples = 50
	cfg.StMCSamples = 500
	tr := obdrel.Trace{
		{Hours: 4000, VDD: 1.0, TempC: 55},
		{Hours: 3000, VDD: 1.1, TempC: 78},
		{Hours: 1000, VDD: 1.2, ActivityScale: 1},
	}
	an, err := obdrel.NewTraceAnalyzerCtx(context.Background(), obdrel.C1(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batch trace lifetime %v != library %v (must be bit-identical)", got, want)
	}
}

// TestBatchTraceBuildsInNodeStages: a server given its own stage cache
// builds trace substrates there, inside that node's tiers and stage
// metrics, not in the process-wide obdrel.Stages().
func TestBatchTraceBuildsInNodeStages(t *testing.T) {
	stages := pipeline.NewCache(64)
	srv := newTestServer(t, Options{Stages: stages, DisableTracing: true})
	item := fmt.Sprintf(`{"query":"trace","design":"C2","method":"st_fast","ppm":10,"trace":[{"hours":500,"vdd":1.15,"activity_scale":0.8}],"config":%s}`, cheapCfg)
	_, lines, _ := postBatch(t, srv.URL+"/v1/batch", batchBody(item))
	if len(lines) != 1 || lines[0]["ok"] != true {
		t.Fatalf("trace item failed: %v", lines)
	}
	builds := map[string]int64{}
	for _, s := range stages.Snapshot() {
		builds[s.Stage] = s.Builds
	}
	for _, stage := range []string{obdrel.StageThermal, obdrel.StageBLOD} {
		if builds[stage] != 1 {
			t.Errorf("node stage cache built %s %d times, want 1 (stats %v)", stage, builds[stage], builds)
		}
	}
}

func TestBatchInvalidTraceIsPerItemError(t *testing.T) {
	srv := newTestServer(t, Options{})
	items := []string{
		fmt.Sprintf(`{"query":"trace","design":"C1","method":"st_fast","trace":[{"hours":-1,"vdd":1.0,"temp_c":50}],"config":%s}`, cheapCfg),
		fmt.Sprintf(`{"query":"nonsense","design":"C1","config":%s}`, cheapCfg),
	}
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(items...))
	if lines[0]["ok"] != false || !strings.Contains(lines[0]["error"].(string), "hours") {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["ok"] != false || !strings.Contains(lines[1]["error"].(string), "unknown query") {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if trailer["done"] != true {
		t.Fatalf("per-item validation failures must not kill the stream: %v", trailer)
	}
}

// TestBatchConcurrentStreams exercises the planner under concurrent
// batch requests sharing the registry and stage cache — the -race
// target for the new subsystem.
func TestBatchConcurrentStreams(t *testing.T) {
	srv := newTestServer(t, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var items []string
			for i := 0; i < 8; i++ {
				items = append(items, fmt.Sprintf(
					`{"design":"C%d","method":"st_fast","ppm":%d,"config":%s}`, g%2+1, i+1, cheapCfg))
			}
			resp, err := http.Post(srv.URL+"/v1/batch", "application/json",
				strings.NewReader(batchBody(items...)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			n := 0
			var last map[string]any
			for sc.Scan() {
				last = nil
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					errs <- err
					return
				}
				n++
			}
			if n != 10 { // header + 8 items + trailer
				errs <- fmt.Errorf("stream %d: %d lines, want 10", g, n)
				return
			}
			if last["done"] != true || last["ok"].(float64) != 8 {
				errs <- fmt.Errorf("stream %d trailer: %v", g, last)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchMetrics checks the obdreld_batch_* families after traffic:
// counters move, the reuse ratio is positive, and /v1/batch stays a
// first-class route label.
func TestBatchMetrics(t *testing.T) {
	srv := newTestServer(t, Options{})
	var items []string
	for i := 0; i < 6; i++ {
		items = append(items, fmt.Sprintf(`{"design":"C1","method":"st_fast","ppm":%d,"config":%s}`, i+1, cheapCfg))
	}
	items = append(items, `{"design":"NOPE"}`)
	postBatch(t, srv.URL+"/v1/batch", batchBody(items...))

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		text.WriteString(sc.Text())
		text.WriteString("\n")
	}
	for _, want := range []string{
		"obdreld_batch_requests_total 1",
		`obdreld_batch_items_total{status="ok"} 6`,
		`obdreld_batch_items_total{status="error"} 1`,
		"obdreld_batch_groups_total 1",
		"obdreld_batch_substrate_reused_items_total 5",
		`obdreld_batch_item_errors_total{class="permanent"} 1`,
		`obdreld_requests_total{route="/v1/batch",code="200"} 1`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text.String(), "obdreld_batch_substrate_reuse_ratio 0\n") {
		t.Error("reuse ratio should be positive after a same-design sweep")
	}
	if !strings.Contains(text.String(), "obdreld_batch_stream_bytes_total") {
		t.Error("metrics missing stream bytes counter")
	}
}
