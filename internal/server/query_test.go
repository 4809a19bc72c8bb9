package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"obdrel"
	"obdrel/internal/pipeline"
)

// TestUnaryAndBatchAnswersAgree is the unary/batch half of the
// differential answer contract: the same question asked of a /v1 route
// and as a /v1/batch item gets the same answer, field for field and bit
// for bit — every result field except the query_us timing.
func TestUnaryAndBatchAnswersAgree(t *testing.T) {
	srv := newTestServer(t, Options{Stages: pipeline.NewCache(64), DisableTracing: true})
	type tc struct{ path, item string }
	var cases []tc
	for _, m := range []string{"st_fast", "hybrid", "guard"} {
		for _, k := range []struct{ kind, args, item string }{
			{kindLifetime, "ppm=3", `"ppm":3`},
			{kindFailureProb, "t=100000", `"t":100000`},
			{kindMaxVDD, "ppm=10&target_hours=500000&vlo=1.0&vhi=1.4&tolv=0.05",
				`"ppm":10,"target_hours":500000,"vlo":1.0,"vhi":1.4,"tolv":0.05`},
		} {
			cases = append(cases, tc{
				path: fmt.Sprintf("/v1/%s?design=C1&method=%s&%s&%s", k.kind, m, k.args, cheap),
				item: fmt.Sprintf(`{"query":%q,"design":"C1","method":%q,%s,"config":%s}`, k.kind, m, k.item, cheapCfg),
			})
		}
	}
	// A first unary pass builds every analyzer, so both answers below
	// are registry hits and carry the same cache label.
	for _, c := range cases {
		getJSON(t, srv.URL+c.path, http.StatusOK)
	}
	items := make([]string, len(cases))
	for i, c := range cases {
		items[i] = c.item
	}
	_, lines, trailer := postBatch(t, srv.URL+"/v1/batch", batchBody(items...))
	if len(lines) != len(cases) || trailer["done"] != true || trailer["errors"].(float64) != 0 {
		t.Fatalf("batch: %d lines, trailer %v", len(lines), trailer)
	}
	for i, c := range cases {
		unary := getJSON(t, srv.URL+c.path, http.StatusOK)
		item, _ := lines[i]["result"].(map[string]any)
		for _, res := range []map[string]any{unary, item} {
			if _, ok := res["query_us"].(float64); !ok {
				t.Errorf("%s: query_us = %v, want a number", c.path, res["query_us"])
			}
			delete(res, "query_us")
		}
		if fmt.Sprint(unary) != fmt.Sprint(item) {
			t.Errorf("%s:\nunary %v\nbatch %v", c.path, unary, item)
		}
		for _, f := range []string{"lifetime_hours", "failure_prob", "reliability", "max_vdd"} {
			if u, ok := unary[f].(float64); ok && u != item[f] {
				t.Errorf("%s: %s unary %v != batch %v", c.path, f, u, item[f])
			}
		}
	}
}

// FuzzQueryRequest drives GET query strings and batch-item JSON through
// the one resolver, building no analyzer. It must never panic; every
// rejection is a 4xx *apiError; every accepted query carries a config
// that passes Config.Validate inside the service caps, the arguments
// its kind requires, and the canonical registry key.
func FuzzQueryRequest(f *testing.F) {
	s := mustNew(Options{Stages: pipeline.NewCache(1), DisableTracing: true})
	f.Add("design=C1&method=hybrid&ppm=10&grid=8", false, uint8(0))
	f.Add("design=c3&t=1e5&vdd=1.1&defects=0.02&seed=-3", false, uint8(1))
	f.Add("target_hours=1000&vlo=1.0&vhi=1.4&tolv=0.01&quadtree=true", false, uint8(2))
	f.Add("grid=4096&mc_samples=-1&vdd=NaN", false, uint8(0))
	f.Add(`{"design":"C1","method":"st_fast","ppm":10,"config":{"grid":6}}`, true, uint8(0))
	f.Add(`{"query":"trace","design":"C2","t":5000,"trace":[{"hours":500,"vdd":1.15,"activity_scale":0.8}]}`, true, uint8(0))
	f.Add(`{"query":"maxvdd","target_hours":1e3,"config":{"l0":999,"hybrid_nl":0}}`, true, uint8(0))
	f.Add(`{"design":"C1","ppn":1}`, true, uint8(0))
	unaryKinds := []string{kindLifetime, kindFailureProb, kindMaxVDD}
	f.Fuzz(func(t *testing.T, raw string, item bool, k uint8) {
		var req apiRequest
		var tr obdrel.Trace
		kind := unaryKinds[int(k)%len(unaryKinds)]
		if item {
			var it batchItem
			if err := strictDecoder(strings.NewReader(raw)).Decode(&it); err != nil {
				return // a malformed item: the stream's trailer reports it
			}
			req, tr, kind = it.apiRequest, it.Trace, it.Query
		} else {
			vals, _ := url.ParseQuery(raw) // as http.Request.URL.Query does
			if err := parseQuery(vals, &req); err != nil {
				checkRejection(t, err)
				return
			}
		}
		q, err := s.resolve(kind, &req, tr)
		if err != nil {
			checkRejection(t, err)
			return
		}
		c := q.cfg
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		if c.GridNx > maxGrid || c.GridNy > maxGrid || c.MCSamples > maxMCSamples ||
			c.StMCSamples > maxStMCSamples || c.HybridNL > maxHybridN || c.HybridNB > maxHybridN || c.L0 > maxL0 {
			t.Fatalf("accepted config beyond the service caps: %+v", c)
		}
		switch q.kind {
		case kindLifetime:
			if q.ppm == 0 {
				t.Fatal("lifetime query without a ppm")
			}
		case kindFailureProb:
			if !(q.t > 0) {
				t.Fatalf("failureprob query with t = %v", q.t)
			}
		case kindMaxVDD:
			if !(q.target > 0) || q.vLo == 0 || q.vHi == 0 {
				t.Fatalf("maxvdd query with target %v, bracket [%v, %v]", q.target, q.vLo, q.vHi)
			}
		case kindTrace:
			if err := q.tr.Validate(); err != nil {
				t.Fatalf("accepted trace fails Validate: %v", err)
			}
		default:
			t.Fatalf("accepted unknown kind %q", q.kind)
		}
		want := obdrel.CacheKey(q.d, q.cfg)
		if q.kind == kindTrace {
			want = obdrel.TraceCacheKeyFrom(obdrel.CacheKey(q.d, q.cfg), q.tr)
		}
		if q.key != want {
			t.Fatalf("registry key %q, want the canonical %q", q.key, want)
		}
	})
}

// checkRejection holds a resolver rejection to the contract: a typed
// 4xx *apiError.
func checkRejection(t *testing.T, err error) {
	t.Helper()
	var ae *apiError
	if !errors.As(err, &ae) || ae.code < 400 || ae.code > 499 {
		t.Fatalf("rejection %v (%T) is not a 4xx *apiError", err, err)
	}
}
