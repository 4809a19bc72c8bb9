package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"obdrel/internal/artifact"
	"obdrel/internal/pipeline"
)

// TestPeerCallBodyLimit drives call's body read against an httptest
// peer at a 1 KiB limit: a declared length over the limit is refused
// before any byte is read, a body shorter than its declared length is
// an error, and a body of unknown length fails, rather than arriving
// truncated, once it passes the limit.
func TestPeerCallBodyLimit(t *testing.T) {
	const limit = 1 << 10
	body := bytes.Repeat([]byte("obda"), limit)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		switch r.URL.Path {
		case "/declared":
			w.Header().Set("Content-Length", strconv.Itoa(n))
			w.Write(body[:n])
		case "/declared-held":
			// The header arrives at once, the body only after the
			// caller has hung up: a reader that reads any of it
			// times out instead of refusing.
			w.Header().Set("Content-Length", strconv.Itoa(n))
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			w.Write(body[:n])
		case "/short":
			// Declares n bytes, sends half and ends the connection.
			w.Header().Set("Content-Length", strconv.Itoa(n))
			w.Write(body[:n/2])
		case "/chunked":
			// Two flushed writes: no Content-Length, a chunked body.
			w.Write(body[:n/2])
			w.(http.Flusher).Flush()
			w.Write(body[n/2 : n])
		}
	}))
	defer ts.Close()
	cl := &cluster{client: &http.Client{}, timeout: 2 * time.Second}
	get := func(path string, n int) ([]byte, error) {
		rep, err := cl.call(context.Background(), ts.URL, peerRequest{
			method: http.MethodGet, path: fmt.Sprintf("%s?n=%d", path, n),
			accept: []int{http.StatusOK}, limit: limit,
		})
		return rep.body, err
	}
	for _, tc := range []struct {
		path string
		n    int
	}{{"/declared", limit}, {"/declared", 0}, {"/chunked", limit}, {"/chunked", limit / 2}} {
		got, err := get(tc.path, tc.n)
		if err != nil || !bytes.Equal(got, body[:tc.n]) {
			t.Errorf("%s of %d bytes within the limit: read %d bytes, err %v", tc.path, tc.n, len(got), err)
		}
	}
	for _, path := range []string{"/declared", "/declared-held", "/chunked"} {
		start := time.Now()
		got, err := get(path, limit+1)
		if !errors.Is(err, errBodyTooLarge) {
			t.Errorf("%s of %d bytes over a %d limit: read %d bytes, err %v; want errBodyTooLarge", path, limit+1, limit, len(got), err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s over the limit took %v: the body was read", path, el)
		}
	}
	if got, err := get("/short", limit); err == nil {
		t.Errorf("a body shorter than its Content-Length read %d bytes without error", len(got))
	}
}

// TestReadBodyPastOneChunk: a declared length over bodyChunk reads
// in full into a buffer of exactly that length, and fails when the
// body ends one byte short.
func TestReadBodyPastOneChunk(t *testing.T) {
	body := bytes.Repeat([]byte("obda"), bodyChunk/2+1)
	n := int64(len(body))
	got, err := readBody(bytes.NewReader(body), n, maxArtifactBody)
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(got) {
		t.Fatalf("read %d of %d bytes (cap %d), err %v", len(got), n, cap(got), err)
	}
	if got, err := readBody(bytes.NewReader(body[1:]), n, maxArtifactBody); err == nil {
		t.Fatalf("a body one byte short of %d read %d bytes without error", n, len(got))
	}
}

// TestReplicaReceiveBodyLimit drives the replica receive (PUT
// /v1/artifact) with raw requests: a declared length over the wire
// limit is refused (413) before the body is sent, a body cut short of
// its declared length is a 400 (and one that declares the limit and
// sends nothing allocates far less than the limit), and neither
// installs anything; a sealed container of known or unknown length
// installs.
func TestReplicaReceiveBodyLimit(t *testing.T) {
	cache := pipeline.NewCache(4)
	s := mustNew(Options{Stages: cache, DisableTracing: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	key := key32('f')
	path := artifactPath(clStage, key)
	sealed, err := artifact.Encode(clStage, key, int64(11))
	if err != nil {
		t.Fatal(err)
	}

	// raw sends a request head declaring n body bytes, then send, then
	// closes its write side, and returns the status answered.
	raw := func(n int, send []byte) int {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, "PUT %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n", path, addr, n)
		conn.Write(send)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("declared %d, sent %d: %v", n, len(send), err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := raw(maxArtifactBody+1, nil); got != http.StatusRequestEntityTooLarge {
		t.Errorf("declared %d bytes over the limit: status %d, want 413", maxArtifactBody+1, got)
	}
	// A head declaring the whole limit with no body behind it costs the
	// server what arrived, not what was declared.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := raw(maxArtifactBody, nil)
	runtime.ReadMemStats(&after)
	if got != http.StatusBadRequest {
		t.Errorf("declared %d bytes, sent none: status %d, want 400", maxArtifactBody, got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= maxArtifactBody/4 {
		t.Errorf("declared %d bytes, sent none: the server allocated %d bytes", maxArtifactBody, alloc)
	}
	if got := raw(len(sealed)+8, sealed); got != http.StatusBadRequest {
		t.Errorf("body short of its Content-Length: status %d, want 400", got)
	}
	if cache.Held(clStage, key) {
		t.Fatal("a refused push installed the artifact")
	}

	// io.MultiReader hides the length, so the client sends it chunked.
	for _, body := range []io.Reader{bytes.NewReader(sealed), io.MultiReader(bytes.NewReader(sealed))} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("push with Content-Length %d: status %d, want 204", req.ContentLength, resp.StatusCode)
		}
	}
	if v, ok := cache.Peek(clStage, key); !ok || v.(int64) != 11 {
		t.Fatalf("valid push not installed: %v %v", v, ok)
	}
}
