package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"obdrel/internal/pipeline"
)

// TestMethodNotAllowed drives every /v1 route, the ops routes
// included, with verbs outside its allow set and checks the RFC 9110
// contract: 405 with an Allow header naming exactly the permitted
// methods. /v1/cluster/join exists only on a cluster node.
func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t, Options{})
	const self = "http://127.0.0.1:1"
	node, err := NewE(Options{Stages: pipeline.NewCache(4), Peers: []string{self}, Self: self, WarmLimit: -1, DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	clusterSrv := httptest.NewServer(node.Handler())
	t.Cleanup(clusterSrv.Close)
	artifactPath := "/v1/artifact/" + clStage + "/" + key32('a')
	cases := []struct {
		route     string
		method    string
		wantAllow string
	}{
		{"/v1/designs", http.MethodPost, "GET"},
		{"/v1/designs", http.MethodDelete, "GET"},
		{"/v1/lifetime", http.MethodDelete, "GET, POST"},
		{"/v1/lifetime", http.MethodPut, "GET, POST"},
		{"/v1/failureprob", http.MethodDelete, "GET, POST"},
		{"/v1/maxvdd", http.MethodPatch, "GET, POST"},
		{"/v1/blocks", http.MethodDelete, "GET, POST"},
		{"/v1/batch", http.MethodGet, "POST"},
		{"/v1/batch", http.MethodDelete, "POST"},
		{artifactPath, http.MethodPost, "GET"},
		{artifactPath, http.MethodDelete, "GET"},
		{"/v1/cluster/stats", http.MethodPost, "GET"},
		{"/v1/cluster/status", http.MethodDelete, "GET"},
		{"/v1/cluster/join", http.MethodGet, "POST"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.route, func(t *testing.T) {
			base := srv.URL
			if tc.route == "/v1/cluster/join" {
				base = clusterSrv.URL
			}
			req, err := http.NewRequest(tc.method, base+tc.route, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status = %d, want 405; body: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Allow"); got != tc.wantAllow {
				t.Fatalf("Allow = %q, want %q", got, tc.wantAllow)
			}
			if !strings.Contains(string(body), "not allowed") {
				t.Fatalf("body should explain the rejection: %s", body)
			}
		})
	}
}

// TestAllowedMethodsStillServe pins the gate's complement: the verbs
// in each allow set reach the handler (no false 405s).
func TestAllowedMethodsStillServe(t *testing.T) {
	srv := newTestServer(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/designs = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/lifetime", "application/json",
		strings.NewReader(`{"design":"C1","method":"st_fast","config":{"grid":6,"mc_samples":50,"stmc_samples":500}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/lifetime = %d, want 200", resp.StatusCode)
	}
}
