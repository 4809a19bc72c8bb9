package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"
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

// TestPeerCallDeclaredBodyAllocatesWhatArrives drives call against an
// httptest peer that declares a body of the whole wire limit and sends
// none of it: the fetch fails, and readBody's growing buffer costs what
// arrived, not what was declared.
func TestPeerCallDeclaredBodyAllocatesWhatArrives(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxArtifactBody))
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	cl := &cluster{client: &http.Client{}, timeout: 5 * time.Second}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := cl.call(context.Background(), ts.URL, peerRequest{
		method: http.MethodGet, path: artifactPath(clStage, key32('f')),
		accept: []int{http.StatusOK}, limit: maxArtifactBody,
	})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("declared %d bytes, sent none: read %d bytes without error", maxArtifactBody, len(rep.body))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= maxArtifactBody/4 {
		t.Errorf("declared %d bytes, sent none: the fetch allocated %d bytes", maxArtifactBody, alloc)
	}
}
