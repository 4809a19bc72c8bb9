package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"obdrel/internal/member"
	"obdrel/internal/obs"
)

// The peer protocol. Every node-to-node request goes through call
// (artifact fetch, gossip exchange and stats reads), every "ask each
// peer and wait" through fanOut, and every peer-facing route through
// ops.

// peerRequest is one node-to-node request.
type peerRequest struct {
	method, path string
	header       http.Header // request headers; nil for none
	body         []byte      // request body; nil for none
	accept       []int       // the statuses that answer; any other is an error
	limit        int64       // bytes of an answer's body read; 0 reads none
}

// peerReply is what a peer answered. status and header are set
// whenever the peer answered at all; body only for an accepted status.
type peerReply struct {
	status int
	header http.Header
	body   []byte
}

// call sends one request to peer under the per-call timeout. A status
// outside rq.accept is an error naming the peer, the path and the
// status; a transport error is returned as the client gives it, naming
// the method and URL.
func (cl *cluster) call(ctx context.Context, peer string, rq peerRequest) (peerReply, error) {
	var rep peerReply
	ctx, cancel := context.WithTimeout(ctx, cl.timeout)
	defer cancel()
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, peer+rq.path, body)
	if err != nil {
		return rep, err
	}
	if rq.header != nil {
		req.Header = rq.header
	}
	resp, err := cl.client.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	rep.status, rep.header = resp.StatusCode, resp.Header
	accepted := slices.Contains(rq.accept, resp.StatusCode)
	if !accepted || rq.limit == 0 {
		// A short drain lets the connection be reused.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if !accepted {
			return rep, fmt.Errorf("peer %s: %s %s: status %d", peer, rq.method, rq.path, resp.StatusCode)
		}
		return rep, nil
	}
	if rep.body, err = readBody(resp.Body, resp.ContentLength, rq.limit); err != nil {
		return rep, fmt.Errorf("peer %s: %s %s: %w", peer, rq.method, rq.path, err)
	}
	return rep, nil
}

// errBodyTooLarge is a peer body over its reader's limit.
var errBodyTooLarge = errors.New("body exceeds its limit")

// bodyChunk is the most readBody allocates ahead of the bytes that
// have arrived.
const bodyChunk = 1 << 20

// readBody reads a peer's answer of declared length n (-1 when
// unknown) and at most limit bytes. A declared length over the limit
// is refused before any byte is read. A known length is read into a
// buffer of exactly n bytes when n is at most bodyChunk; a longer one
// is read into a buffer that doubles as bytes arrive, so a peer that
// declares a large body and sends none pins bodyChunk, not n. Either
// way the body must fill n. A body of unknown length is read bounded,
// and fails, rather than arriving truncated, once it passes the limit.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("%w: declared %d bytes, limit %d", errBodyTooLarge, n, limit)
	}
	if n >= 0 {
		b, read := make([]byte, min(n, bodyChunk)), 0
		for {
			if _, err := io.ReadFull(r, b[read:]); err != nil {
				return nil, fmt.Errorf("body shorter than its declared %d bytes: %w", n, err)
			}
			if read = len(b); int64(read) == n {
				return b, nil
			}
			grown := make([]byte, min(n, 2*int64(read)))
			copy(grown, b)
			b = grown
		}
	}
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("%w: more than %d bytes", errBodyTooLarge, limit)
	}
	return b, nil
}

// callJSON is call for the JSON documents nodes exchange: in, when
// non-nil, is the request body, and a 200 answer of at most limit
// bytes is decoded into out.
func (cl *cluster) callJSON(ctx context.Context, peer, method, path string, in, out any, limit int64) error {
	rq := peerRequest{method: method, path: path, accept: []int{http.StatusOK}, limit: limit}
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rq.body, rq.header = b, http.Header{"Content-Type": {"application/json"}}
	}
	rep, err := cl.call(ctx, peer, rq)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(rep.body, out); err != nil {
		return fmt.Errorf("peer %s: %s %s: decode: %v", peer, method, path, err)
	}
	return nil
}

// fanOut calls f for every node but self, concurrently, and returns
// once every call has. i is the node's index in nodes.
func (cl *cluster) fanOut(nodes []string, f func(i int, peer string)) {
	var wg sync.WaitGroup
	for i, p := range nodes {
		if p == cl.self {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, p)
		}()
	}
	wg.Wait()
}

// maxArtifactBody bounds a fetched sealed artifact on the wire:
// header + payload, which 32 MiB comfortably bounds for every
// stage at the server's resource caps.
const maxArtifactBody = 32 << 20

func artifactPath(stage, key string) string {
	return "/v1/artifact/" + url.PathEscape(stage) + "/" + url.PathEscape(key)
}

// spanSubtreeHeader carries the owner's finished `peer.serve` span
// subtree back to the fetcher (JSON-encoded obs.SpanOut), where it is
// grafted under the fetcher's artifact.fetch span — the mechanism that
// makes one ?explain=1 tree span both nodes. The fetcher asks for it
// by sending the same header, valued "1", only when its trace will be
// read (obs.Span.Read); the owner builds it only when asked.
const spanSubtreeHeader = "X-Obdrel-Span"

// fetchFrom performs one peer request. (nil, nil) is a clean 404.
// Fetches that run inside a traced request mint an `artifact.fetch`
// child span and propagate the trace to the peer as a W3C
// traceparent; when the trace will be read, they also ask for the
// peer's span subtree and graft it under their own span.
func (cl *cluster) fetchFrom(ctx context.Context, peer, stage, key string) ([]byte, error) {
	rq := peerRequest{method: http.MethodGet, path: artifactPath(stage, key),
		accept: []int{http.StatusOK, http.StatusNotFound}, limit: maxArtifactBody}
	ctx, sp := obs.StartSpan(ctx, "artifact.fetch")
	graft := sp.Read()
	if sp != nil {
		sp.SetAttr("peer", peer)
		sp.SetAttr("stage", stage)
		defer sp.End()
		rq.header = http.Header{"Traceparent": {obs.Traceparent(sp.TraceID(), sp.ID())}}
		if graft {
			rq.header[spanSubtreeHeader] = []string{"1"}
		}
	}
	rep, err := cl.call(ctx, peer, rq)
	if rep.status == 0 {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	sp.SetAttr("status", rep.status)
	if graft {
		sp.AttachRemote(peerSpanSubtree(rep.header.Get(spanSubtreeHeader)))
	}
	if err != nil || rep.status == http.StatusNotFound {
		return nil, err
	}
	return rep.body, nil
}

// maxPeerSpanUs bounds every offset and duration in a peer's span
// subtree. A peer.serve subtree spans one artifact serve, so an hour
// is far beyond any real one, and it keeps the rebased offsets finite.
const maxPeerSpanUs = float64(time.Hour / time.Microsecond)

// peerSpanSubtree decodes a peer's span-subtree header. The bytes are
// the peer's: a subtree that does not decode, holds a null span or an
// offset beyond maxPeerSpanUs is dropped whole (nil), which costs the
// fetcher the graft, never its trace or the artifact.
func peerSpanSubtree(h string) *obs.SpanOut {
	if h == "" {
		return nil
	}
	var sub obs.SpanOut
	if json.Unmarshal([]byte(h), &sub) != nil || !saneSpan(&sub) {
		return nil
	}
	return &sub
}

func saneSpan(s *obs.SpanOut) bool {
	if s == nil || math.Abs(s.StartUs) > maxPeerSpanUs || math.Abs(s.DurUs) > maxPeerSpanUs {
		return false
	}
	for _, c := range s.Children {
		if !saneSpan(c) {
			return false
		}
	}
	return true
}

// exchange POSTs our snapshot to one peer's /v1/cluster/join and
// returns its merged view, less the records the cluster does not
// admit.
func (cl *cluster) exchange(ctx context.Context, peer string, snap member.List) (member.List, error) {
	var merged member.List
	if err := cl.callJSON(ctx, peer, http.MethodPost, "/v1/cluster/join", snap, &merged, 1<<20); err != nil {
		return merged, err
	}
	return cl.admit(merged), nil
}

// opsFunc answers one ops request with a status and a body: nil for
// none, []byte written verbatim as application/octet-stream, anything
// else as JSON.
type opsFunc func(w http.ResponseWriter, r *http.Request, ob *observed) (int, any)

// ops is the one envelope around the peer-facing and fleet routes
// (/v1/artifact/ and /v1/cluster/*): observation, the method gate (405
// with Allow) and writing the answer. It is not instrument on purpose:
// these routes must keep answering while the node drains — a peer's
// fetch and the fleet view outlive the drain — and never take an
// admission slot, and instrument stays free of per-route-kind branches.
func (s *Server) ops(route string, h opsFunc, allow ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ob := s.begin()
		status := http.StatusOK
		defer func() { s.observe(route, r, status, &ob) }()
		if !methodAllowed(r.Method, allow) {
			status = writeMethodNotAllowed(w, r, route, allow)
			return
		}
		var body any
		status, body = h(w, r, &ob)
		switch b := body.(type) {
		case nil:
			w.WriteHeader(status)
		case []byte:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			w.WriteHeader(status)
			w.Write(b)
		default:
			writeJSON(w, status, b)
		}
	})
}
