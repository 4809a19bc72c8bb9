package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"obdrel/internal/artifact"
	"obdrel/internal/member"
	"obdrel/internal/pipeline"
)

// dynNode is one in-process dynamic-membership node.
type dynNode struct {
	ts *httptest.Server
	s  *Server
}

// startDynNode boots a dynamic node whose URL is allocated by the
// test listener; seeds may be empty (first node) or other nodes'
// URLs. Short lease so suspect/dead transitions land in test time.
func startDynNode(t *testing.T, seeds []string, lease time.Duration) *dynNode {
	t.Helper()
	lh := &lateHandler{}
	ts := httptest.NewServer(lh)
	join := seeds
	if len(join) == 0 {
		join = []string{ts.URL} // self-seed: dynamic mode, lonely start
	}
	s, err := NewE(Options{
		Stages:         pipeline.NewCache(64),
		Self:           ts.URL,
		JoinPeers:      join,
		Lease:          lease,
		PeerTimeout:    500 * time.Millisecond,
		Replicas:       2,
		ArtifactDir:    t.TempDir(),
		DisableTracing: true,
	})
	if err != nil {
		ts.Close()
		t.Fatalf("NewE dynamic: %v", err)
	}
	lh.h.Store(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })
	return &dynNode{ts: ts, s: s}
}

// kill is the in-process kill −9: the listener drops and the
// background loops stop, with no graceful leave and no drain.
func (n *dynNode) kill() {
	n.ts.Close()
	n.s.Close()
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestDynamicJoinConvergence: three nodes discover each other through
// one seed, converge to the same alive set, and the status surface
// reports per-epoch membership.
func TestDynamicJoinConvergence(t *testing.T) {
	a := startDynNode(t, nil, 600*time.Millisecond)
	b := startDynNode(t, []string{a.ts.URL}, 600*time.Millisecond)
	c := startDynNode(t, []string{a.ts.URL}, 600*time.Millisecond)

	for _, n := range []*dynNode{a, b, c} {
		n := n
		waitFor(t, "3-node convergence", 5*time.Second, func() bool {
			return len(n.s.cluster.peersView()) == 3
		})
	}

	// The ring is identical everywhere once the alive sets agree.
	key := key32('a')
	owner := a.s.cluster.replicaSet(clStage, key)[0]
	if got := b.s.cluster.replicaSet(clStage, key)[0]; got != owner {
		t.Fatalf("ring diverged: a says %s, b says %s", owner, got)
	}

	// Status surface: membership with states, epoch, replica factor.
	resp, err := http.Get(a.ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out clusterStatusOut
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Membership) != 3 {
		t.Fatalf("membership has %d entries, want 3: %+v", len(out.Membership), out.Membership)
	}
	if out.RingEpoch == 0 || out.Replicas != 2 {
		t.Fatalf("ring_epoch=%d replicas=%d, want nonzero epoch and 2 replicas", out.RingEpoch, out.Replicas)
	}
	for _, m := range out.Membership {
		if m.State.String() != "active" {
			t.Fatalf("member %s state %v, want active", m.Node, m.State)
		}
	}
}

// TestReplicationPushOnBuild: with k=2 over two nodes every key's
// replica set is both nodes, so a build on A must asynchronously
// appear on B without B ever building.
func TestReplicationPushOnBuild(t *testing.T) {
	a := startDynNode(t, nil, 600*time.Millisecond)
	b := startDynNode(t, []string{a.ts.URL}, 600*time.Millisecond)
	for _, n := range []*dynNode{a, b} {
		n := n
		waitFor(t, "2-node convergence", 5*time.Second, func() bool {
			return len(n.s.cluster.peersView()) == 2
		})
	}

	key := key32('b')
	built := 0
	_, _, err := pipeline.Get(context.Background(), a.s.stages, clStage, key, func(context.Context) (int64, error) {
		built++
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Fatalf("build ran %d times, want 1", built)
	}

	// The PUT handler counts the receive only after Install makes the
	// replica visible, so wait for both before asserting on either.
	waitFor(t, "replica to land on B", 5*time.Second, func() bool {
		return b.s.stages.Held(clStage, key) && b.s.cluster.replReceives.Load() >= 1
	})
	if v, ok := b.s.stages.Peek(clStage, key); !ok || v.(int64) != 42 {
		t.Fatalf("replica on B = %v (ok=%v), want 42 in memory", v, ok)
	}
	if got := a.s.cluster.replicaPushes.Load(); got < 1 {
		t.Fatalf("replicaPushes = %d, want ≥ 1", got)
	}
	if got := b.s.cluster.replReceives.Load(); got < 1 {
		t.Fatalf("replReceives on B = %d, want ≥ 1", got)
	}
}

// TestReplicaServesAfterKill is the tentpole scenario in miniature:
// three nodes, k=2, artifacts built on A and replicated; kill −9 A;
// B answers every key with ZERO builds — memory, disk, or a peer
// fetch from C, never a rebuild.
func TestReplicaServesAfterKill(t *testing.T) {
	a := startDynNode(t, nil, 500*time.Millisecond)
	b := startDynNode(t, []string{a.ts.URL}, 500*time.Millisecond)
	c := startDynNode(t, []string{a.ts.URL}, 500*time.Millisecond)
	for _, n := range []*dynNode{a, b, c} {
		n := n
		waitFor(t, "3-node convergence", 5*time.Second, func() bool {
			return len(n.s.cluster.peersView()) == 3
		})
	}

	// Build a spread of keys on A. Every replica set is 2 of 3 nodes,
	// so each key must end up held by at least one of B, C.
	keys := []string{}
	for _, ch := range "0123456789abcdef" {
		keys = append(keys, key32(byte(ch)))
	}
	for i, key := range keys {
		val := int64(i)
		if _, _, err := pipeline.Get(context.Background(), a.s.stages, clStage, key, func(context.Context) (int64, error) {
			return val, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replication to settle on B∪C", 10*time.Second, func() bool {
		for _, key := range keys {
			if !b.s.stages.Held(clStage, key) && !c.s.stages.Held(clStage, key) {
				return false
			}
		}
		return true
	})
	// Replication ran clean: no push errors, queue drops, or rejects.
	for _, n := range []*dynNode{a, b, c} {
		if e, d, r := n.s.cluster.replicaPushErrs.Load(), n.s.cluster.replicaDropped.Load(), n.s.cluster.replRejects.Load(); e+d+r != 0 {
			t.Fatalf("node %s: replica push errors=%d dropped=%d rejects=%d, want 0", n.ts.URL, e, d, r)
		}
	}

	a.kill()

	// B resolves every key with zero builds: local tiers or a peer
	// fetch from C (walking past the dead A, hedged).
	for i, key := range keys {
		key := key
		v, _, err := pipeline.Get(context.Background(), b.s.stages, clStage, key, func(context.Context) (int64, error) {
			return -1, fmt.Errorf("rebuild of replicated key %s", key)
		})
		if err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		if v != int64(i) {
			t.Fatalf("key %s = %d, want %d", key, v, i)
		}
	}

	// The fleet notices the death: B's directory marks A suspect then
	// dead, the ring shrinks to two, the epoch bumps.
	waitFor(t, "death detection on B", 5*time.Second, func() bool {
		return len(b.s.cluster.peersView()) == 2
	})
	_, _, dead := b.s.cluster.dir.Counts()
	if dead < 1 {
		t.Fatalf("B's directory reports %d dead members, want ≥ 1", dead)
	}
}

// TestRebalanceStreamsOnJoin: a node joining a fleet with existing
// artifacts streams its newly-owned keys via the rebalance sweep —
// without building anything.
func TestRebalanceStreamsOnJoin(t *testing.T) {
	a := startDynNode(t, nil, 500*time.Millisecond)
	keys := []string{}
	for _, ch := range "02468ace" {
		keys = append(keys, key32(byte(ch)))
	}
	for i, key := range keys {
		val := int64(100 + i)
		if _, _, err := pipeline.Get(context.Background(), a.s.stages, clStage, key, func(context.Context) (int64, error) {
			return val, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	b := startDynNode(t, []string{a.ts.URL}, 500*time.Millisecond)
	waitFor(t, "join convergence", 5*time.Second, func() bool {
		return len(b.s.cluster.peersView()) == 2 && len(a.s.cluster.peersView()) == 2
	})

	// k=2 over two nodes: B is in every replica set, so the sweep must
	// eventually stream every key.
	waitFor(t, "rebalance stream to B", 10*time.Second, func() bool {
		for _, key := range keys {
			if !b.s.stages.Held(clStage, key) {
				return false
			}
		}
		return true
	})
	if got := b.s.cluster.rebalFetched.Load(); got < 1 {
		t.Fatalf("rebalFetched = %d, want ≥ 1", got)
	}
	for i, key := range keys {
		if v, ok := b.s.stages.Peek(clStage, key); !ok || v.(int64) != int64(100+i) {
			t.Fatalf("streamed key %s = %v (ok=%v), want %d", key, v, ok, 100+i)
		}
	}
	// Builds on B stayed at zero: everything was streamed or pushed.
	for _, st := range b.s.stages.Snapshot() {
		if st.Stage == clStage && st.Builds != 0 {
			t.Fatalf("joining node built %d artifacts, want 0", st.Builds)
		}
	}
}

// TestHedgedFetch: a slow first candidate trips the hedge and the
// second candidate's instant answer wins, counted in fetch_hedged and
// fetch_hedge_wins.
func TestHedgedFetch(t *testing.T) {
	// Both servers serve any requested key on the fly; only the delay
	// differs. Self is never dialed (candidates exclude it).
	serve := func(delay time.Duration) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			k := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]
			sealed, err := artifact.Encode(clStage, k, int64(7))
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			time.Sleep(delay)
			w.Write(sealed)
		}
	}
	slow := httptest.NewServer(serve(300 * time.Millisecond))
	defer slow.Close()
	fast := httptest.NewServer(serve(0))
	defer fast.Close()

	cl, err := newCluster(&Options{Self: "http://self.invalid:1",
		Peers: []string{"http://self.invalid:1", slow.URL, fast.URL}, PeerTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Candidate order is ring-determined: probe keys until one routes
	// to the slow server first. 16 probes each have ~1/2 odds, so a
	// miss on all of them means the ring itself is broken.
	probe := ""
	for _, ch := range "0123456789abcdef" {
		k := key32(byte(ch))
		if cands := cl.candidates(clStage, k); len(cands) == 2 && cands[0] == slow.URL {
			probe = k
			break
		}
	}
	if probe == "" {
		t.Fatal("no probe key routed to the slow server first across 16 probes")
	}

	got, ok, err := cl.fetch(context.Background(), clStage, probe)
	if err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	if v, err := artifact.Decode(clStage, probe, got); err != nil || v.(int64) != 7 {
		t.Fatalf("decode: v=%v err=%v", v, err)
	}
	if cl.fetchHedged.Load() != 1 {
		t.Fatalf("fetchHedged = %d, want 1", cl.fetchHedged.Load())
	}
	if cl.fetchHedgeWins.Load() != 1 {
		t.Fatalf("fetchHedgeWins = %d, want 1", cl.fetchHedgeWins.Load())
	}
}

// TestGracefulLeaveGossipsObituary: BeginDrain must push the leaving
// node's dead state to peers promptly (epoch bump), not wait out the
// lease.
func TestGracefulLeaveGossipsObituary(t *testing.T) {
	a := startDynNode(t, nil, 5*time.Second) // long lease: expiry won't rescue us
	b := startDynNode(t, []string{a.ts.URL}, 5*time.Second)
	for _, n := range []*dynNode{a, b} {
		n := n
		waitFor(t, "2-node convergence", 5*time.Second, func() bool {
			return len(n.s.cluster.peersView()) == 2
		})
	}

	b.s.BeginDrain()
	waitFor(t, "obituary on A", 3*time.Second, func() bool {
		return len(a.s.cluster.peersView()) == 1
	})
	_, _, dead := a.s.cluster.dir.Counts()
	if dead != 1 {
		t.Fatalf("A's directory reports %d dead, want 1 (the drained B)", dead)
	}
}

// TestArtifactPutHostility: the replica-receive surface validates as
// hard as the GET side — garbage, wrong-key, and unregistered-stage
// pushes all reject without installing anything.
func TestArtifactPutHostility(t *testing.T) {
	a := startDynNode(t, nil, time.Second)
	good := key32('d')
	sealed, err := artifact.Encode(clStage, good, int64(9))
	if err != nil {
		t.Fatal(err)
	}
	put := func(path string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, a.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("/v1/artifact/"+clStage+"/"+good, []byte("garbage")); code != http.StatusBadRequest {
		t.Fatalf("garbage container: status %d, want 400", code)
	}
	if code := put("/v1/artifact/"+clStage+"/"+key32('e'), sealed); code != http.StatusBadRequest {
		t.Fatalf("wrong-key container: status %d, want 400", code)
	}
	if code := put("/v1/artifact/nosuchstage/"+good, sealed); code != http.StatusBadRequest {
		t.Fatalf("unregistered stage: status %d, want 400", code)
	}
	if a.s.stages.Held(clStage, good) || a.s.stages.Held(clStage, key32('e')) {
		t.Fatal("a rejected push installed an artifact")
	}
	if code := put("/v1/artifact/"+clStage+"/"+good, sealed); code != http.StatusNoContent {
		t.Fatalf("valid push: status %d, want 204", code)
	}
	if !a.s.stages.Held(clStage, good) {
		t.Fatal("valid push did not install")
	}
}

// TestClusterJoinDropsMalformedMembers: a gossip snapshot naming
// things that are not base URLs answers 200 but changes neither the
// directory nor the ring — a bogus member would otherwise take 1/n of
// ownership — and the same records in a peer's exchange answer are
// dropped. The node's loops stop first, so nothing dials the names.
func TestClusterJoinDropsMalformedMembers(t *testing.T) {
	a := startDynNode(t, nil, time.Second)
	a.s.Close()
	before := a.s.cluster.peersView()
	body := `{"from":"garbage","epoch":1,"members":[` +
		`{"node":"garbage","incarnation":1,"state":"active"},` +
		`{"node":"http://x:1/a/path","incarnation":1,"state":"active"}]}`
	resp, err := http.Post(a.ts.URL+"/v1/cluster/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d, want 200", resp.StatusCode)
	}
	if got := a.s.cluster.peersView(); !slices.Equal(got, before) {
		t.Fatalf("ring went from %v to %v", before, got)
	}
	if got := a.s.cluster.dir.Members(); len(got) != 1 {
		t.Fatalf("directory holds %v, want only self", got)
	}

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	}))
	defer peer.Close()
	merged, err := a.s.cluster.exchange(context.Background(), peer.URL, a.s.cluster.dir.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.From != "" || len(merged.Members) != 0 {
		t.Fatalf("exchange kept %q and %v, want nothing", merged.From, merged.Members)
	}
}

// TestPinnedMemberStaysInRing is the -peers contract: a pinned member
// whose lease expires is reported dead by the directory but stays in
// the ring, no rebalance sweep fires, and a fresh key still builds
// locally on the survivor.
func TestPinnedMemberStaysInRing(t *testing.T) {
	lA, lB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lA), httptest.NewServer(lB)
	defer tsA.Close()
	peers := []string{tsA.URL, tsB.URL}
	mk := func(self string) *Server {
		s, err := NewE(Options{
			Stages: pipeline.NewCache(4), Peers: peers, Self: self,
			Lease: 500 * time.Millisecond, PeerTimeout: 200 * time.Millisecond,
			WarmLimit: -1, DisableTracing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sA, sB := mk(tsA.URL), mk(tsB.URL)
	defer sA.Close()
	lA.h.Store(sA.Handler())
	lB.h.Store(sB.Handler())
	waitFor(t, "A to see B active", 5*time.Second, func() bool {
		active, _, _ := sA.cluster.dir.Counts()
		return active == 2
	})

	tsB.Close()
	sB.Close()
	waitFor(t, "B's lease to expire on A", 5*time.Second, func() bool {
		_, _, dead := sA.cluster.dir.Counts()
		return dead == 1
	})

	resp, err := http.Get(tsA.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out clusterStatusOut
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	state := ""
	for _, m := range out.Membership {
		if m.Node == tsB.URL {
			state = m.State.String()
		}
	}
	if state != "dead" {
		t.Fatalf("B's membership state = %q, want dead: %+v", state, out.Membership)
	}
	if _, ok := out.Ring[tsB.URL]; !ok || len(out.Ring) != 2 {
		t.Fatalf("ring = %v, want both pinned nodes", out.Ring)
	}
	if got := sA.cluster.rebalSweeps.Load(); got != 0 {
		t.Fatalf("rebalance sweeps = %d, want 0 on a pinned ring", got)
	}
	v, res, err := pipeline.Get(context.Background(), sA.stages, clStage, key32('f'), func(context.Context) (int64, error) {
		return 5, nil
	})
	if err != nil || v != 5 || res.Source != pipeline.SourceBuilt {
		t.Fatalf("fresh key on A = (%d, %q, %v), want 5 built locally", v, res.Source, err)
	}
}

// FuzzClusterJoin feeds /v1/cluster/join the bodies an unauthenticated
// client could send a -peers node. The handler must never panic, must
// answer 400 to anything that is not one JSON document, and whatever
// it merges, the ring must stay exactly the pinned list, the
// directory must hold no other name, and no rebalance sweep may be
// kicked. The node's loops are stopped first, so no name a body
// introduces is ever dialled.
func FuzzClusterJoin(f *testing.F) {
	self, other := "http://127.0.0.1:1", "http://127.0.0.1:2"
	s, err := NewE(Options{
		Stages: pipeline.NewCache(4), Peers: []string{self, other}, Self: self,
		WarmLimit: -1, DisableTracing: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// Each input starts from a fresh directory and the pinned ring,
		// so members merged by earlier inputs do not pile up.
		s.cluster.dir = member.New(self, time.Minute, nil)
		s.cluster.dir.SetOnChange(s.cluster.onChange)
		s.cluster.setMembers(nil, 1)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/cluster/join", bytes.NewReader(body)))
		switch {
		case !json.Valid(body) && rw.Code != http.StatusBadRequest:
			t.Fatalf("malformed body answered %d, want 400", rw.Code)
		case rw.Code == http.StatusOK && !json.Valid(rw.Body.Bytes()):
			t.Fatalf("200 with a malformed snapshot: %q", rw.Body.String())
		case rw.Code != http.StatusOK && rw.Code != http.StatusBadRequest:
			t.Fatalf("status %d, want 200 or 400", rw.Code)
		}
		if ring := s.cluster.peersView(); !slices.Equal(ring, []string{self, other}) {
			t.Fatalf("ring %v, want exactly the pinned list", ring)
		}
		for _, mi := range s.cluster.dir.Members() {
			if mi.Node != self && mi.Node != other {
				t.Fatalf("directory admitted %q, which is not pinned", mi.Node)
			}
		}
		if len(s.cluster.rebalKick) != 0 {
			t.Fatal("a join body kicked a rebalance sweep on a pinned ring")
		}
	})
}
