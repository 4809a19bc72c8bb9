package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"obdrel/internal/member"
	"obdrel/internal/pipeline"
)

// This file is the membership side of cluster mode, which every
// cluster node runs: the gossip exchange endpoint, the heartbeat loop,
// the async k-way replicator, and the epoch-triggered rebalance sweep.
// A -peers node runs it too; its ring is its pinned list, so for it the
// directory reports liveness without moving keys.

// membership bundles the member directory and the machinery around it.
type membership struct {
	dir   *member.Directory
	seeds []string // -peers or -join URLs, normalized, self excluded
	repl  *replicator

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Rebalance progress, surfaced by /readyz: a sweep never gates
	// serving, it only reports.
	rebalKick    chan struct{}
	rebalancing  atomic.Bool
	rebalDone    atomic.Int64
	rebalTotal   atomic.Int64
	rebalFetched atomic.Int64
	rebalSweeps  atomic.Int64
	// keysLost counts artifacts held locally that the current ring no
	// longer assigns to this node (kept — they still serve fetches —
	// but reported so an operator can watch placement drift).
	keysLost atomic.Int64

	heartbeatErrs atomic.Int64
	replReceives  atomic.Int64
	replRejects   atomic.Int64
}

// newMembership builds the directory over the cluster ring and the
// replicator. seeds are normalized base URLs; self is dropped from
// them. NewE starts the heartbeat and rebalance workers once the
// artifact tiers are installed.
func (s *Server) newMembership(seeds []string, lease time.Duration) *membership {
	m := &membership{
		dir:       member.New(s.cluster.self, lease, nil),
		seeds:     slices.DeleteFunc(seeds, func(p string) bool { return p == s.cluster.self }),
		stop:      make(chan struct{}),
		rebalKick: make(chan struct{}, 1),
		repl:      newReplicator(s),
	}
	m.dir.SetOnChange(s.onMembershipChange)
	return m
}

// Close stops the membership background work (heartbeats,
// replication pushes, rebalance sweeps) WITHOUT a graceful leave —
// the in-process equivalent of kill −9 plus goroutine hygiene. A
// graceful exit calls BeginDrain first, which gossips the obituary.
// Close is a no-op outside cluster mode and safe to call twice.
func (s *Server) Close() {
	m := s.member
	if m == nil {
		return
	}
	m.stopOnce.Do(func() {
		close(m.stop)
		m.repl.close()
	})
	m.wg.Wait()
}

// onMembershipChange swaps the ring to the directory's new alive set
// and kicks the rebalance worker when the ring actually changed — never
// on a -peers node, whose ring is its pinned list.
func (s *Server) onMembershipChange(ch member.Change) {
	if !s.cluster.setMembers(ch.Alive, ch.Epoch) {
		return
	}
	select {
	case s.member.rebalKick <- struct{}{}:
	default: // a sweep is already queued; it will see the new ring
	}
}

// heartbeatInterval is lease/3 so a member gets two chances to renew
// before turning suspect at lease/2.
func (m *membership) heartbeatInterval() time.Duration {
	iv := m.dir.Lease() / 3
	if iv < 25*time.Millisecond {
		iv = 25 * time.Millisecond
	}
	return iv
}

// heartbeatLoop sweeps lease expiries and exchanges directory
// snapshots with every alive peer (and, while the directory is still
// lonely, the configured seeds) each interval. Push-pull: the POST
// body is our snapshot, the response is the peer's merged view.
func (s *Server) heartbeatLoop() {
	m := s.member
	defer m.wg.Done()
	ticker := time.NewTicker(m.heartbeatInterval())
	defer ticker.Stop()

	// A -join node joins immediately rather than waiting out the first
	// tick. A -peers node's ring is complete from construction, so its
	// first exchange waits a tick and does not dial peers that are
	// still starting.
	if len(s.cluster.pinned) == 0 {
		s.gossipRound()
	}
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.dir.Sweep()
			s.gossipRound()
		}
	}
}

// gossipRound exchanges snapshots with every target concurrently and
// merges the responses.
func (s *Server) gossipRound() {
	m := s.member
	targets := map[string]bool{}
	for _, p := range m.dir.Alive() {
		if p != s.cluster.self {
			targets[p] = true
		}
	}
	// Seeds the directory has never heard of (bootstrap, or everyone
	// else is dead and we are re-seeding) are contacted too; a seed
	// with a live tombstone is left alone until it rejoins on its own.
	known := map[string]bool{}
	for _, mi := range m.dir.Members() {
		known[mi.Node] = true
	}
	for _, seed := range m.seeds {
		if !known[seed] {
			targets[seed] = true
		}
	}
	if len(targets) == 0 {
		return
	}
	snap := m.dir.Snapshot()
	var wg sync.WaitGroup
	for peer := range targets {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if resp, err := s.exchange(peer, snap); err == nil {
				m.dir.Merge(*resp)
				m.dir.Contact(peer)
			} else {
				m.heartbeatErrs.Add(1)
			}
		}(peer)
	}
	wg.Wait()
}

// exchange POSTs our snapshot to one peer's /v1/cluster/join and
// returns its merged view.
func (s *Server) exchange(peer string, snap member.List) (*member.List, error) {
	body, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cluster.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		peer+"/v1/cluster/join", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, errBadRequest("join %s: status %d", peer, resp.StatusCode)
	}
	var merged member.List
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&merged); err != nil {
		return nil, err
	}
	merged = s.cluster.admit(merged)
	return &merged, nil
}

// admits reports whether a name gossip brings in may enter the
// directory: any base URL on a -join node, only a pinned member on a
// -peers node, so nobody can post their way into a pinned ring.
func (cl *cluster) admits(p string) bool {
	return isBaseURL(p) && (len(cl.pinned) == 0 || slices.Contains(cl.pinned, p))
}

// admit drops the gossip records whose node the cluster does not
// admit, and blanks a From it does not admit, so a malformed name —
// or, on a -peers node, any name outside the pinned list — never
// enters the directory, is never dialled and never joins the ring. A
// bad record is dropped, not the exchange: the rest still merges.
func (cl *cluster) admit(l member.List) member.List {
	if !cl.admits(l.From) {
		l.From = ""
	}
	l.Members = slices.DeleteFunc(l.Members, func(in member.Info) bool { return !cl.admits(in.Node) })
	return l
}

// handleClusterJoin is the push-pull gossip surface: the request body
// is the sender's directory snapshot, the response is ours after the
// merge. Every cluster node registers it. The body must be one JSON
// document; records the cluster does not admit are dropped.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() { s.observeOps("/v1/cluster/join", r, status, start, "") }()
	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		writeJSON(w, status, map[string]any{"error": "POST only"})
		return
	}
	var in member.List
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &in)
	}
	if err != nil {
		status = http.StatusBadRequest
		writeJSON(w, status, map[string]any{"error": "bad member list: " + err.Error()})
		return
	}
	in = s.cluster.admit(in)
	m := s.member
	m.dir.Merge(in)
	m.dir.Contact(in.From)
	writeJSON(w, status, m.dir.Snapshot())
}

// handleClusterKeys lists this node's artifact inventory — the
// rebalance sweep's discovery surface. Registered on every node; a
// node outside cluster mode reports an empty node name and epoch 0.
func (s *Server) handleClusterKeys(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() { s.observeOps("/v1/cluster/keys", r, status, start, "") }()
	if r.Method != http.MethodGet {
		status = http.StatusMethodNotAllowed
		writeJSON(w, status, map[string]any{"error": "GET only"})
		return
	}
	node := ""
	var epoch uint64
	if s.cluster != nil {
		node, epoch = s.cluster.self, s.cluster.epochView()
	}
	writeJSON(w, status, map[string]any{
		"node":  node,
		"epoch": epoch,
		"keys":  s.stages.Inventory(),
	})
}

// rebalanceLoop runs one sweep per kick, coalescing bursts: the sweep
// always evaluates the CURRENT ring, so ten epoch bumps during a
// sweep cost one follow-up sweep, not ten.
func (s *Server) rebalanceLoop() {
	m := s.member
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.rebalKick:
			s.rebalanceSweep()
		}
	}
}

// rebalanceSweep streams newly-owned artifacts from their old owners.
// The "diff against the previous ring" is evaluated as owned-now ∧
// not-held-locally against the peers' inventories — equivalent for
// deciding what to stream, and self-healing: a sweep interrupted by a
// crash or another epoch bump simply leaves keys for the next sweep.
// Serving is never gated; /readyz reports progress while the node
// keeps answering queries (fetching per-query if it must).
func (s *Server) rebalanceSweep() {
	m := s.member
	m.rebalSweeps.Add(1)
	m.rebalancing.Store(true)
	m.rebalDone.Store(0)
	m.rebalTotal.Store(0)
	defer m.rebalancing.Store(false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // a Close mid-sweep abandons the stream promptly
		select {
		case <-m.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	// Discover what the fleet holds.
	remote := map[pipeline.StageKey]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range s.cluster.peersView() {
		if peer == s.cluster.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			keys, err := s.fetchInventory(ctx, peer)
			if err != nil {
				return // a dead or lagging peer just contributes nothing
			}
			mu.Lock()
			for _, sk := range keys {
				remote[sk] = true
			}
			mu.Unlock()
		}(peer)
	}
	wg.Wait()

	// Gained: owned on the current ring but not held here.
	var gained []pipeline.StageKey
	for sk := range remote {
		if s.cluster.owns(sk.Stage, sk.Key) && !s.stages.Held(sk.Stage, sk.Key) {
			gained = append(gained, sk)
		}
	}
	// Lost: held here but no longer ours — counted, never deleted
	// (they still serve peer fetches until evicted naturally).
	var lost int64
	for _, sk := range s.stages.Inventory() {
		if !s.cluster.owns(sk.Stage, sk.Key) {
			lost++
		}
	}
	m.keysLost.Store(lost)
	m.rebalTotal.Store(int64(len(gained)))
	if len(gained) == 0 {
		return
	}

	// Stream with bounded concurrency through the ordinary fetch walk
	// (owner-first, hedged), installing into memory + disk.
	sem := make(chan struct{}, 4)
	for _, sk := range gained {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(sk pipeline.StageKey) {
			defer wg.Done()
			defer func() { <-sem }()
			defer m.rebalDone.Add(1)
			sealed, ok, err := s.cluster.fetch(ctx, sk.Stage, sk.Key)
			if err != nil || !ok {
				return // next sweep retries; a query meanwhile fetches or builds
			}
			if s.stages.Install(sk.Stage, sk.Key, sealed) == nil {
				m.rebalFetched.Add(1)
			}
		}(sk)
	}
	wg.Wait()
}

// fetchInventory reads one peer's /v1/cluster/keys.
func (s *Server) fetchInventory(ctx context.Context, peer string) ([]pipeline.StageKey, error) {
	rctx, cancel := context.WithTimeout(ctx, s.cluster.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, peer+"/v1/cluster/keys", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, errBadRequest("inventory %s: status %d", peer, resp.StatusCode)
	}
	var out struct {
		Keys []pipeline.StageKey `json:"keys"`
	}
	// 8 MiB bounds ~100k inventory entries — far beyond any cache cap.
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}

// leave gossips this node's obituary: called from BeginDrain so the
// fleet drops us by epoch bump instead of waiting out the lease.
func (s *Server) leaveCluster() {
	m := s.member
	m.dir.Leave()
	snap := m.dir.Snapshot()
	var wg sync.WaitGroup
	for _, peer := range m.dir.Alive() {
		if peer == s.cluster.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			s.exchange(peer, snap) // best-effort; lease expiry is the backstop
		}(peer)
	}
	wg.Wait()
}

// --- replication ---

type repTask struct {
	stage, key string
	sealed     []byte
}

// replicator pushes freshly built artifacts to the other members of
// their replica set, asynchronously: the build path only enqueues.
// The queue drops (counted) under pressure — replication is an
// availability optimisation, and the rebalance sweep is the backstop
// that re-converges anything dropped.
type replicator struct {
	s     *Server
	tasks chan repTask
	done  chan struct{}
	wg    sync.WaitGroup
}

func newReplicator(s *Server) *replicator {
	r := &replicator{
		s:     s,
		tasks: make(chan repTask, 256),
		done:  make(chan struct{}),
	}
	for i := 0; i < 2; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// enqueue is the pipeline.Tiers.Replicate hook: never blocks.
func (r *replicator) enqueue(stage, key string, sealed []byte) {
	select {
	case r.tasks <- repTask{stage, key, sealed}:
	case <-r.done:
	default:
		r.s.cluster.replicaDropped.Add(1)
	}
}

func (r *replicator) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case t := <-r.tasks:
			r.push(t)
		}
	}
}

// push writes the artifact to every replica-set member but self. The
// set is computed at push time, not enqueue time, so a ring change in
// between targets the right nodes.
func (r *replicator) push(t repTask) {
	cl := r.s.cluster
	ctx, cancel := context.WithTimeout(context.Background(), cl.timeout)
	defer cancel()
	for _, peer := range cl.replicaSet(t.stage, t.key) {
		if peer == cl.self {
			continue
		}
		cl.replicaPushes.Add(1)
		if err := cl.pushReplica(ctx, peer, t.stage, t.key, t.sealed); err != nil {
			cl.replicaPushErrs.Add(1)
		}
	}
}

func (r *replicator) close() {
	close(r.done)
	r.wg.Wait()
}
