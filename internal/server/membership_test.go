package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

	converge(t, a, b, c)

	// The ring is identical everywhere once the alive sets agree.
	key := clStage + "/" + key32('a')
	owner := a.s.cluster.ringView().owner(key)
	if got := b.s.cluster.ringView().owner(key); got != owner {
		t.Fatalf("ring diverged: a says %s, b says %s", owner, got)
	}

	// Status surface: membership with states and epoch.
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
	if out.RingEpoch == 0 {
		t.Fatalf("ring_epoch=%d, want nonzero", out.RingEpoch)
	}
	for _, m := range out.Membership {
		if m.State.String() != "active" {
			t.Fatalf("member %s state %v, want active", m.Node, m.State)
		}
	}

	// The cluster-mode /metrics families are on: a cluster node's epoch
	// is at least 1.
	mresp, err := http.Get(a.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"\nobdreld_cluster_epoch ", "\nobdreld_cluster_members{state=\"active\"} 3\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// converge waits until every node's ring holds all of them.
func converge(t *testing.T, nodes ...*dynNode) {
	t.Helper()
	for _, n := range nodes {
		waitFor(t, fmt.Sprintf("%d-node convergence", len(nodes)), 5*time.Second, func() bool {
			return len(n.s.cluster.peersView()) == len(nodes)
		})
	}
}

// buildOn resolves every key on n, valued by its index in keys.
func buildOn(t *testing.T, n *dynNode, keys []string) {
	t.Helper()
	for i, key := range keys {
		val := int64(i)
		if _, _, err := pipeline.Get(context.Background(), n.s.stages, clStage, key, func(context.Context) (int64, error) {
			return val, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func keysOf(chars string) []string {
	var keys []string
	for _, ch := range chars {
		keys = append(keys, key32(byte(ch)))
	}
	return keys
}

// TestKillRebuildsLostKeysOnce: three nodes, artifacts built on A;
// kill −9 A. Nothing moved the artifacts ahead of demand, so B
// resolves every key without an error — by a fill from a peer that
// holds it, or by one rebuild — and gets the value A built.
func TestKillRebuildsLostKeysOnce(t *testing.T) {
	a := startDynNode(t, nil, 500*time.Millisecond)
	b := startDynNode(t, []string{a.ts.URL}, 500*time.Millisecond)
	c := startDynNode(t, []string{a.ts.URL}, 500*time.Millisecond)
	converge(t, a, b, c)
	keys := keysOf("0123456789abcdef")
	buildOn(t, a, keys)

	a.kill()

	// Every artifact is a pure function of its key: B's build returns
	// what A's did.
	builds := map[string]int{}
	for i, key := range keys {
		v, _, err := pipeline.Get(context.Background(), b.s.stages, clStage, key, func(context.Context) (int64, error) {
			builds[key]++
			return int64(i), nil
		})
		if err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		if v != int64(i) {
			t.Fatalf("key %s = %d, want %d", key, v, i)
		}
		if builds[key] > 1 {
			t.Fatalf("key %s built %d times, want at most 1", key, builds[key])
		}
	}
	if st := b.s.stages.Stat(clStage); st.Builds > int64(len(keys)) || st.Failures != 0 {
		t.Fatalf("B: %d builds and %d failures for %d keys, want at most one build each and none failed", st.Builds, st.Failures, len(keys))
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

// TestJoinFillsFromPeers: D joins a fleet of A and B after A built a
// spread of keys, and answers every one of them by a peer fill,
// without building anything.
func TestJoinFillsFromPeers(t *testing.T) {
	a := startDynNode(t, nil, 500*time.Millisecond)
	b := startDynNode(t, []string{a.ts.URL}, 500*time.Millisecond)
	converge(t, a, b)
	keys := keysOf("02468ace")
	buildOn(t, a, keys)

	d := startDynNode(t, []string{b.ts.URL}, 500*time.Millisecond)
	converge(t, a, b, d)
	for i, key := range keys {
		v, res, err := pipeline.Get(context.Background(), d.s.stages, clStage, key, func(context.Context) (int64, error) {
			return -1, fmt.Errorf("joiner rebuilt key %s", key)
		})
		if err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		if v != int64(i) || res.Source != pipeline.SourcePeer {
			t.Fatalf("key %s = %d via %q, want %d via peer", key, v, res.Source, i)
		}
	}
	if st := d.s.stages.Stat(clStage); st.Builds != 0 || st.PeerHits != int64(len(keys)) {
		t.Fatalf("joiner: builds=%d peerHits=%d, want 0 and %d", st.Builds, st.PeerHits, len(keys))
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
	converge(t, a, b)

	b.s.BeginDrain()
	waitFor(t, "obituary on A", 3*time.Second, func() bool {
		return len(a.s.cluster.peersView()) == 1
	})
	_, _, dead := a.s.cluster.dir.Counts()
	if dead != 1 {
		t.Fatalf("A's directory reports %d dead, want 1 (the drained B)", dead)
	}
}

// TestArtifactPutHostility: /v1/artifact is read-only. A PUT of a
// valid sealed container answers 405 with Allow: GET, and installs
// nothing in memory or on disk.
func TestArtifactPutHostility(t *testing.T) {
	a := startDynNode(t, nil, time.Second)
	key := key32('d')
	sealed, err := artifact.Encode(clStage, key, int64(9))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, a.ts.URL+artifactPath(clStage, key), bytes.NewReader(sealed))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("PUT: status %d, Allow %q; want 405 and GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if _, ok := a.s.stages.Peek(clStage, key); ok {
		t.Fatal("a PUT installed an artifact in memory")
	}
	if _, err := os.Stat(filepath.Join(a.s.opts.ArtifactDir, artifact.FileName(clStage, key))); !os.IsNotExist(err) {
		t.Fatalf("a PUT left an artifact on disk: %v", err)
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
// the ring, and a fresh key still builds locally on the survivor.
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
// it merges, the ring must stay exactly the pinned list and the
// directory must hold no other name. The node's loops are stopped first, so no name a body
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
	})
}
