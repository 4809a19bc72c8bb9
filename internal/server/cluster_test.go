package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"obdrel"
	"obdrel/internal/artifact"
	"obdrel/internal/pipeline"
)

// The cluster tests use a trivial serializable stage (an int64) so a
// two-node exchange costs microseconds, not a physics build.
const clStage = "clusterstage"

func init() {
	artifact.Register(clStage, func(w *artifact.Writer, v int64) { w.U64(uint64(v)) },
		func(r *artifact.Reader) (int64, error) { return r.I64(), nil })
}

func key32(b byte) string { return strings.Repeat(string(b), artifact.KeySize) }

// lateHandler lets an httptest server start before the obdreld handler
// exists — the chicken-and-egg of a static peer list whose URLs are
// allocated by the test listener.
type lateHandler struct{ h atomic.Value }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := l.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// TestRingSuccessorsPrefixOfFullWalk: over random rings and keys,
// successors is the first min(ring nodes, maxFetchCandidates+1)
// distinct nodes of a full clockwise walk from the key's point.
func TestRingSuccessorsPrefixOfFullWalk(t *testing.T) {
	rnd := rand.New(rand.NewPCG(7, 39))
	for trial := 0; trial < 300; trial++ {
		nodes := make([]string, 1+rnd.IntN(8))
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://n%d-%d", i, rnd.IntN(1000))
		}
		r := newHashRing(nodes, 1+rnd.IntN(64))
		for k := 0; k < 40; k++ {
			key := fmt.Sprintf("chip/%016x%016x", rnd.Uint64(), rnd.Uint64())
			var walk []string
			for i, n := r.at(key), 0; n < len(r.points); n++ {
				if p := r.points[(i+n)%len(r.points)]; !slices.Contains(walk, p.node) {
					walk = append(walk, p.node)
				}
			}
			want := walk[:min(len(walk), maxFetchCandidates+1)]
			if got := r.successors(key); !slices.Equal(got, want) {
				t.Fatalf("ring %v key %s: successors %v, want %v", nodes, key, got, want)
			}
		}
	}
}

func TestHashRingOwnershipAndSuccessors(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r := newHashRing(nodes, 64)
	ownedBy := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("stage/%032x", i)
		o := r.owner(key)
		if o2 := r.owner(key); o2 != o {
			t.Fatalf("owner not stable: %s vs %s", o, o2)
		}
		ownedBy[o]++
		seq := r.successors(key)
		if len(seq) != len(nodes) {
			t.Fatalf("successors returned %d nodes, want %d", len(seq), len(nodes))
		}
		if seq[0] != o {
			t.Fatalf("successors[0] = %s, owner = %s", seq[0], o)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("duplicate node %s in successors", n)
			}
			seen[n] = true
		}
	}
	for _, n := range nodes {
		if ownedBy[n] == 0 {
			t.Errorf("node %s owns no keys out of 1000 — ring badly unbalanced", n)
		}
	}
}

func TestNewEClusterValidation(t *testing.T) {
	cases := []struct {
		name  string
		self  string
		peers []string
		join  []string
	}{
		{"missing self", "", []string{"http://a:1"}, nil},
		{"self not in peers", "http://c:3", []string{"http://a:1", "http://b:2"}, nil},
		{"not a URL", "http://a:1", []string{"http://a:1", "nonsense"}, nil},
		{"empty list", "http://a:1", []string{"", "  "}, nil},
		{"peer with a path", "http://a:1", []string{"http://a:1", "http://b:2/a/path"}, nil},
		{"join seeds not URLs", "http://a:1", nil, []string{"nonsense", "127.0.0.1:9"}},
		{"join seed with a path", "http://a:1", nil, []string{"http://b:2/a/path"}},
		{"join seed with a query", "http://a:1", nil, []string{"http://b:2?x=1"}},
		{"join without self", "", nil, []string{"http://b:2"}},
		{"self not a base URL", "http://a:1/x", nil, []string{"http://b:2"}},
		{"peers and join", "http://a:1", []string{"http://a:1"}, []string{"http://b:2"}},
	}
	for _, tc := range cases {
		if _, err := NewE(Options{Stages: pipeline.NewCache(4), Self: tc.self, Peers: tc.peers, JoinPeers: tc.join, DisableTracing: true}); err == nil {
			t.Errorf("%s: NewE accepted invalid cluster options", tc.name)
		}
	}
	// Trailing slashes and duplicates normalize away. (Private stage
	// cache: cluster options install a peer-fetch tier, which must not
	// land on the process-wide cache shared by other tests.)
	s, err := NewE(Options{
		Stages:         pipeline.NewCache(4),
		Self:           "http://a:1/",
		Peers:          []string{"http://a:1", "http://a:1/", " http://b:2/ "},
		DisableTracing: true,
	})
	if err != nil {
		t.Fatalf("NewE rejected valid options: %v", err)
	}
	t.Cleanup(s.Close)
	if got := s.cluster.peers; len(got) != 2 {
		t.Fatalf("peers = %v, want 2 normalized entries", got)
	}
}

// TestPeerCacheFillBetweenNodes is the in-process two-node exchange:
// node A builds an artifact, node B resolves the same key entirely by
// peer fill (its build closure must never run), persists the fill to
// its own disk tier, and A's /v1/artifact serve counter moves.
func TestPeerCacheFillBetweenNodes(t *testing.T) {
	lA, lB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lA), httptest.NewServer(lB)
	defer tsA.Close()
	defer tsB.Close()
	peers := []string{tsA.URL, tsB.URL}

	cacheA, cacheB := pipeline.NewCache(4), pipeline.NewCache(4)
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, err := NewE(Options{Stages: cacheA, ArtifactDir: dirA, Peers: peers, Self: tsA.URL, WarmLimit: -1, DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sA.Close)
	sB, err := NewE(Options{Stages: cacheB, ArtifactDir: dirB, Peers: peers, Self: tsB.URL, WarmLimit: -1, DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Close)
	lA.h.Store(sA.Handler())
	lB.h.Store(sB.Handler())

	ctx := context.Background()
	key := key32('a')
	if _, _, err := pipeline.Get(ctx, cacheA, clStage, key, func(context.Context) (int64, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}

	v, res, err := pipeline.Get(ctx, cacheB, clStage, key, func(context.Context) (int64, error) {
		return 0, errors.New("follower must not build")
	})
	if err != nil {
		t.Fatalf("peer fill failed: %v", err)
	}
	if v != 7 || res.Source != pipeline.SourcePeer {
		t.Fatalf("got %d via %q, want 7 via peer", v, res.Source)
	}
	st := cacheB.Stat(clStage)
	if st.Builds != 0 || st.PeerHits != 1 {
		t.Fatalf("follower builds=%d peerHits=%d, want 0/1", st.Builds, st.PeerHits)
	}
	if _, err := os.Stat(filepath.Join(dirB, artifact.FileName(clStage, key))); err != nil {
		t.Fatalf("peer fill not persisted to follower disk: %v", err)
	}
	if got := sA.artifactStats().PeerServes; got < 1 {
		t.Fatalf("node A peer serves = %d, want >= 1", got)
	}
}

// TestClusterDegradeToLocalBuild kills the only peer and verifies the
// survivor answers by building locally — a dead peer costs latency,
// never correctness.
func TestClusterDegradeToLocalBuild(t *testing.T) {
	tsDead := httptest.NewServer(http.NotFoundHandler())
	deadURL := tsDead.URL
	tsDead.Close() // connection refused from here on

	lB := &lateHandler{}
	tsB := httptest.NewServer(lB)
	defer tsB.Close()

	cacheB := pipeline.NewCache(4)
	sB, err := NewE(Options{
		Stages: cacheB, ArtifactDir: t.TempDir(),
		Peers: []string{deadURL, tsB.URL}, Self: tsB.URL,
		PeerTimeout: 200 * time.Millisecond, WarmLimit: -1, DisableTracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Close)
	lB.h.Store(sB.Handler())

	builds := 0
	v, res, err := pipeline.Get(context.Background(), cacheB, clStage, key32('b'), func(context.Context) (int64, error) {
		builds++
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("survivor answered (%d, %v), want 9", v, err)
	}
	if builds != 1 || res.Source != pipeline.SourceBuilt {
		t.Fatalf("builds=%d source=%q, want local build", builds, res.Source)
	}
	if st := cacheB.Stat(clStage); st.PeerErrors < 1 {
		t.Fatalf("peerErrors=%d, want >= 1 (dead peer was consulted)", st.PeerErrors)
	}
}

// TestArtifactEndpointHostility exercises the wire gate: malformed
// stages, malformed keys, cold keys, and wrong methods are all typed
// refusals, never 500s.
func TestArtifactEndpointHostility(t *testing.T) {
	s := mustNew(Options{Stages: pipeline.NewCache(4), DisableTracing: true})
	h := s.Handler()
	do := func(method, path string) int {
		req := httptest.NewRequest(method, path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw.Code
	}
	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/artifact/" + clStage + "/" + key32('e'), http.StatusNotFound},   // cold key
		{http.MethodGet, "/v1/artifact/nosuchstage/" + key32('e'), http.StatusBadRequest},     // unregistered stage
		{http.MethodGet, "/v1/artifact/" + clStage + "/nothex", http.StatusBadRequest},        // malformed key
		{http.MethodGet, "/v1/artifact/" + clStage + "/" + key32('E'), http.StatusBadRequest}, // uppercase hex
		{http.MethodGet, "/v1/artifact/" + clStage, http.StatusBadRequest},                    // missing key
		{http.MethodGet, "/v1/artifact/a/b/c", http.StatusBadRequest},                         // extra segment
		{http.MethodPost, "/v1/artifact/" + clStage + "/" + key32('e'), http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		if got := do(tc.method, tc.path); got != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, got, tc.want)
		}
	}
}

// TestWarmSweepReadyz pre-populates a disk tier, constructs a node over
// it, and verifies the anti-entropy sweep loads the artifact and
// /readyz converges to ready with the warm count reported.
func TestWarmSweepReadyz(t *testing.T) {
	dir := t.TempDir()
	key := key32('c')
	sealed, err := artifact.Encode(clStage, key, int64(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(dir, clStage, key, sealed); err != nil {
		t.Fatal(err)
	}

	cache := pipeline.NewCache(4)
	s := mustNew(Options{Stages: cache, ArtifactDir: dir, DisableTracing: true})
	h := s.Handler()

	deadline := time.Now().Add(5 * time.Second)
	for {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rw.Code == http.StatusOK {
			var body struct {
				Warming bool  `json:"warming"`
				Warmed  int64 `json:"warmed"`
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body.Warming || body.Warmed != 1 {
				t.Fatalf("ready body %s missing warm progress", rw.Body.String())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warm sweep never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	v, ok := cache.Peek(clStage, key)
	if !ok || v.(int64) != 12 {
		t.Fatalf("warmed artifact = (%v, %t), want 12 resident", v, ok)
	}
	if st := cache.Stat(clStage); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("diskHits=%d builds=%d, want 1/0", st.DiskHits, st.Builds)
	}
}

// TestRingRebalanceMinimalChurn is the consistent-hashing property
// gate: adding or removing one of n nodes moves only the keys the
// ring must move. Exactness first — on a removal, only keys owned by
// the removed node change owner; on an addition, a key either keeps
// its owner or moves to the new node — then the churn bound: the
// moved fraction stays within vnode variance of the ideal K/n. On an
// addition, the new node's first fetch candidate for every key it
// gains (its first successor other than itself) is the key's previous
// owner, so a joiner fills what it gains on demand from the node that
// held it.
func TestRingRebalanceMinimalChurn(t *testing.T) {
	const K = 1000
	keys := make([]string, K)
	for i := range keys {
		keys[i] = fmt.Sprintf("stage/%032x", i)
	}
	for n := 2; n <= 6; n++ {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://node-%c", 'a'+i)
		}
		full := newHashRing(nodes, 64)

		// Removal: drop each node in turn.
		for drop := 0; drop < n; drop++ {
			rest := append(append([]string{}, nodes[:drop]...), nodes[drop+1:]...)
			smaller := newHashRing(rest, 64)
			moved := 0
			for _, k := range keys {
				before, after := full.owner(k), smaller.owner(k)
				if before == nodes[drop] {
					moved++
					if after == nodes[drop] {
						t.Fatalf("n=%d: removed node still owns %s", n, k)
					}
				} else if after != before {
					t.Fatalf("n=%d: key %s moved %s->%s though %s stayed in the ring",
						n, k, before, after, before)
				}
			}
			// moved == keys the dropped node owned ≈ K/n; 64 vnodes keep
			// the share within ~2× of ideal.
			if bound := 2 * K / n; moved > bound {
				t.Errorf("n=%d drop=%d: removal moved %d keys, bound %d", n, drop, moved, bound)
			}
		}

		// Addition: grow to n+1.
		grown := newHashRing(append(append([]string{}, nodes...), "http://node-new"), 64)
		moved := 0
		for _, k := range keys {
			before, after := full.owner(k), grown.owner(k)
			if after != before {
				if after != "http://node-new" {
					t.Fatalf("n=%d: key %s moved %s->%s instead of to the new node",
						n, k, before, after)
				}
				if next := grown.successors(k)[1]; next != before {
					t.Fatalf("n=%d: key %s moved to the new node, whose next successor is %s, not its previous owner %s",
						n, k, next, before)
				}
				moved++
			}
		}
		if bound := 2 * K / (n + 1); moved > bound {
			t.Errorf("n=%d: addition moved %d keys, bound %d", n, moved, bound)
		}
	}
}

// TestClusterRealStagesPeerFillAndRestart runs the artifact tiers on
// the real stage codecs instead of the synthetic int64 stage. Node A
// answers a lifetime sweep cold and spills every stage to its disk
// tier. Node B, on a static two-node ring, answers the same sweep
// with zero builds on every stage: it fills the chip and the PCA (and
// the floorplan and power map) from A. It never looks BLOD up, since
// only a chip build reads it, nor covariance, which only the PCA and
// BLOD builds read, nor thermal and weibull, which only the reports
// read; a /v1/blocks on B then fills those two from A, still with zero
// builds. A node started later on A's artifact directory, with a
// fresh cache and no peers, answers the sweep from the disk tier
// alone. All three agree bit for bit.
func TestClusterRealStagesPeerFillAndRestart(t *testing.T) {
	var paths []string
	for _, d := range []string{"C1", "C2"} {
		for _, ppm := range []int{5, 10, 20} {
			paths = append(paths, fmt.Sprintf(
				"/v1/lifetime?design=%s&method=st_fast&ppm=%d&grid=8&mc_samples=100&stmc_samples=1000", d, ppm))
		}
	}
	sweep := func(base string) []float64 {
		t.Helper()
		out := make([]float64, len(paths))
		for i, p := range paths {
			out[i] = getJSON(t, base+p, http.StatusOK)["lifetime_hours"].(float64)
		}
		return out
	}
	// Workers pinned so every node derives the same artifacts whatever
	// the host's GOMAXPROCS.
	node := func(cache *pipeline.Cache, dir string, peers []string, self string, warmLimit int) *Server {
		s, err := NewE(Options{
			Stages: cache, ArtifactDir: dir, Peers: peers, Self: self,
			WarmLimit: warmLimit, Workers: 2, DisableTracing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	lA, lB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lA), httptest.NewServer(lB)
	defer tsA.Close()
	defer tsB.Close()
	peers := []string{tsA.URL, tsB.URL}
	cacheA, cacheB := pipeline.NewCache(64), pipeline.NewCache(64)
	dirA := t.TempDir()
	sA := node(cacheA, dirA, peers, tsA.URL, -1)
	sB := node(cacheB, t.TempDir(), peers, tsB.URL, -1)
	lA.h.Store(sA.Handler())
	lB.h.Store(sB.Handler())

	want := sweep(tsA.URL)
	for _, stage := range obdrel.StageNames() {
		st := cacheA.Stat(stage)
		if st.Builds == 0 || st.Spills == 0 {
			t.Errorf("node A stage %s: builds=%d spills=%d, want both > 0", stage, st.Builds, st.Spills)
		}
	}

	gotB := sweep(tsB.URL)
	unread := map[string]bool{obdrel.StageBLOD: true, obdrel.StageCovariance: true,
		obdrel.StageThermal: true, obdrel.StageWeibull: true}
	fills := func(when string) {
		t.Helper()
		for _, stage := range obdrel.StageNames() {
			st := cacheB.Stat(stage)
			if unread[stage] {
				if st.Builds != 0 || st.PeerHits != 0 || st.Hits+st.Misses != 0 {
					t.Errorf("%s: node B looked %s up: builds=%d peerHits=%d lookups=%d, want none", when, stage, st.Builds, st.PeerHits, st.Hits+st.Misses)
				}
				continue
			}
			if st.Builds != 0 || st.PeerHits == 0 {
				t.Errorf("%s: node B stage %s: builds=%d peerHits=%d, want 0 and > 0", when, stage, st.Builds, st.PeerHits)
			}
		}
	}
	fills("lifetime sweep")
	blocks := "/v1/blocks?design=C1&grid=8&mc_samples=100&stmc_samples=1000"
	wantBlocks := getJSON(t, tsA.URL+blocks, http.StatusOK)
	gotBlocks := getJSON(t, tsB.URL+blocks, http.StatusOK)
	delete(wantBlocks, "cache")
	delete(gotBlocks, "cache")
	if !reflect.DeepEqual(gotBlocks, wantBlocks) {
		t.Errorf("/v1/blocks: A %v, B %v", wantBlocks, gotBlocks)
	}
	delete(unread, obdrel.StageThermal)
	delete(unread, obdrel.StageWeibull)
	fills("/v1/blocks")
	// The operator is resolved only inside a thermal build, so a node
	// serving peer-filled thermal artifacts never builds, fetches or
	// even looks one up.
	if st := cacheB.Stat(obdrel.StageThermalOp); st.Builds != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("node B resolved the thermal operator: builds=%d lookups=%d, want none", st.Builds, st.Hits+st.Misses)
	}
	if got := sA.artifactStats().PeerServes; got == 0 {
		t.Error("node A served no artifacts to its peer")
	}
	if got := sB.artifactStats().FetchFills; got == 0 {
		t.Error("node B filled nothing from its peer")
	}

	// Restart: A goes away and a fresh node answers from A's spills.
	tsA.Close()
	cacheC := pipeline.NewCache(64)
	sC := node(cacheC, dirA, nil, "", 1024)
	tsC := httptest.NewServer(sC.Handler())
	defer tsC.Close()
	waitFor(t, "restarted node ready", 10*time.Second, func() bool {
		resp, err := http.Get(tsC.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	gotC := sweep(tsC.URL)
	for _, stage := range obdrel.StageNames() {
		st := cacheC.Stat(stage)
		if st.Builds != 0 || st.DiskHits == 0 {
			t.Errorf("restarted stage %s: builds=%d diskHits=%d, want 0 and > 0", stage, st.Builds, st.DiskHits)
		}
	}
	if st := cacheC.Stat(obdrel.StageThermalOp); st.Builds != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("restarted node resolved the thermal operator: builds=%d lookups=%d, want none", st.Builds, st.Hits+st.Misses)
	}
	for _, c := range []*pipeline.Cache{cacheA, cacheB, cacheC} {
		for _, st := range c.Snapshot() {
			if st.DiskRejects != 0 || st.SpillFails != 0 {
				t.Errorf("stage %s: diskRejects=%d spillFails=%d, want 0", st.Stage, st.DiskRejects, st.SpillFails)
			}
		}
	}

	for i, p := range paths {
		if gotB[i] != want[i] || gotC[i] != want[i] {
			t.Errorf("%s: A %v, B %v, restarted %v — want bit-identical", p, want[i], gotB[i], gotC[i])
		}
	}
}

// TestBlocksSideFillFailureIsStageError: a peer-filled node resolves
// /v1/blocks' operating point under the request. With the owner down
// and an injected weibull build fault on the request, the fill fails,
// and the answer is weibull's stage error, as any stage failure is.
// The failure is not kept: the next /v1/blocks builds the two stages
// locally and answers what the owner answered.
func TestBlocksSideFillFailureIsStageError(t *testing.T) {
	const q = "design=C1&method=st_fast&ppm=10&grid=8&mc_samples=100&stmc_samples=1000"
	lA, lB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lA), httptest.NewServer(lB)
	defer tsA.Close()
	defer tsB.Close()
	peers := []string{tsA.URL, tsB.URL}
	node := func(self string) (*Server, *pipeline.Cache) {
		cache := pipeline.NewCache(64)
		s, err := NewE(Options{
			Stages: cache, Peers: peers, Self: self, WarmLimit: -1, Workers: 2,
			FaultHeader: true, DisableTracing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, cache
	}
	sA, _ := node(tsA.URL)
	sB, cacheB := node(tsB.URL)
	lA.h.Store(sA.Handler())
	lB.h.Store(sB.Handler())

	getJSON(t, tsA.URL+"/v1/lifetime?"+q, http.StatusOK)
	want := getJSON(t, tsA.URL+"/v1/blocks?"+q, http.StatusOK)
	getJSON(t, tsB.URL+"/v1/lifetime?"+q, http.StatusOK)
	tsA.Close()

	resp, out := getResp(t, tsB.URL+"/v1/blocks?"+q, map[string]string{"X-Fault": "pipeline.build(weibull):perm:1"})
	if msg, _ := out["error"].(string); resp.StatusCode != http.StatusInternalServerError ||
		out["class"] != "permanent" || !strings.HasPrefix(msg, "stage weibull [") {
		t.Fatalf("/v1/blocks with the fill failing = %d %v, want 500 naming stage weibull", resp.StatusCode, out)
	}
	got := getJSON(t, tsB.URL+"/v1/blocks?"+q, http.StatusOK)
	delete(want, "cache")
	delete(got, "cache")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/blocks after the failure: owner %v, B %v", want, got)
	}
	if st := cacheB.Stat(obdrel.StageWeibull); st.Failures != 1 || st.Builds != 1 {
		t.Errorf("B's weibull stage: failures=%d builds=%d, want 1/1", st.Failures, st.Builds)
	}
}
