package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"obdrel/internal/member"
	"obdrel/internal/pipeline"
)

// This file is the membership side of cluster mode, which every
// cluster node runs: the gossip exchange endpoint, the heartbeat loop,
// the async k-way replicator, and the epoch-triggered rebalance sweep.
// A -peers node runs it too; its ring is its pinned list, so for it the
// directory reports liveness without moving keys.

// onChange swaps the ring to the directory's new alive set and kicks
// the rebalance worker when the ring actually changed — never on a
// -peers node, whose ring is its pinned list.
func (cl *cluster) onChange(ch member.Change) {
	if !cl.setMembers(ch.Alive, ch.Epoch) {
		return
	}
	select {
	case cl.rebalKick <- struct{}{}:
	default: // a sweep is already queued; it will see the new ring
	}
}

// heartbeatInterval is lease/3 so a member gets two chances to renew
// before turning suspect at lease/2.
func (cl *cluster) heartbeatInterval() time.Duration {
	iv := cl.dir.Lease() / 3
	if iv < 25*time.Millisecond {
		iv = 25 * time.Millisecond
	}
	return iv
}

// heartbeatLoop sweeps lease expiries and exchanges directory
// snapshots with every alive peer (and, while the directory is still
// lonely, the configured seeds) each interval. Push-pull: the POST
// body is our snapshot, the response is the peer's merged view.
func (cl *cluster) heartbeatLoop() {
	ticker := time.NewTicker(cl.heartbeatInterval())
	defer ticker.Stop()

	// A -join node joins immediately rather than waiting out the first
	// tick. A -peers node's ring is complete from construction, so its
	// first exchange waits a tick and does not dial peers that are
	// still starting.
	if len(cl.pinned) == 0 {
		cl.gossipRound()
	}
	for {
		select {
		case <-cl.ctx.Done():
			return
		case <-ticker.C:
			cl.dir.Sweep()
			cl.gossipRound()
		}
	}
}

// gossipRound exchanges snapshots with every target concurrently and
// merges the responses.
func (cl *cluster) gossipRound() {
	targets := cl.dir.Alive()
	// Seeds the directory has never heard of (bootstrap, or everyone
	// else is dead and we are re-seeding) are contacted too; a seed
	// with a live tombstone is left alone until it rejoins on its own.
	known := map[string]bool{}
	for _, mi := range cl.dir.Members() {
		known[mi.Node] = true
	}
	for _, seed := range cl.seeds {
		if !known[seed] {
			targets = append(targets, seed)
		}
	}
	snap := cl.dir.Snapshot()
	cl.fanOut(targets, func(_ int, peer string) {
		if merged, err := cl.exchange(cl.ctx, peer, snap); err == nil {
			cl.dir.Merge(merged)
			cl.dir.Contact(peer)
		} else {
			cl.heartbeatErrs.Add(1)
		}
	})
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
func (s *Server) handleClusterJoin(_ http.ResponseWriter, r *http.Request, _ *observed) (int, any) {
	var in member.List
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &in)
	}
	if err != nil {
		return http.StatusBadRequest, map[string]any{"error": "bad member list: " + err.Error()}
	}
	cl := s.cluster
	in = cl.admit(in)
	cl.dir.Merge(in)
	cl.dir.Contact(in.From)
	return http.StatusOK, cl.dir.Snapshot()
}

// handleClusterKeys lists this node's artifact inventory — the
// rebalance sweep's discovery surface. Registered on every node; a
// node outside cluster mode reports an empty node name and epoch 0.
func (s *Server) handleClusterKeys(http.ResponseWriter, *http.Request, *observed) (int, any) {
	node := ""
	var epoch uint64
	if s.cluster != nil {
		node, epoch = s.cluster.self, s.cluster.epochView()
	}
	return http.StatusOK, map[string]any{
		"node":  node,
		"epoch": epoch,
		"keys":  s.stages.Inventory(),
	}
}

// rebalanceLoop runs one sweep per kick, coalescing bursts: the sweep
// always evaluates the CURRENT ring, so ten epoch bumps during a
// sweep cost one follow-up sweep, not ten.
func (cl *cluster) rebalanceLoop() {
	for {
		select {
		case <-cl.ctx.Done():
			return
		case <-cl.rebalKick:
			cl.rebalanceSweep()
		}
	}
}

// rebalanceSweep streams newly-owned artifacts from their old owners.
// The "diff against the previous ring" is evaluated as owned-now ∧
// not-held-locally against the peers' inventories — equivalent for
// deciding what to stream, and self-healing: a sweep interrupted by a
// crash or another epoch bump simply leaves keys for the next sweep.
// Serving is never gated; /readyz reports progress while the node
// keeps answering queries (fetching per-query if it must). A close
// mid-sweep abandons the stream promptly.
func (cl *cluster) rebalanceSweep() {
	cl.rebalSweeps.Add(1)
	cl.rebalancing.Store(true)
	cl.rebalDone.Store(0)
	cl.rebalTotal.Store(0)
	defer cl.rebalancing.Store(false)

	// Discover what the fleet holds.
	remote := map[pipeline.StageKey]bool{}
	var mu sync.Mutex
	cl.fanOut(cl.peersView(), func(_ int, peer string) {
		var inv struct {
			Keys []pipeline.StageKey `json:"keys"`
		}
		// 8 MiB bounds ~100k inventory entries — far beyond any cache cap.
		if cl.callJSON(cl.ctx, peer, http.MethodGet, "/v1/cluster/keys", nil, &inv, 8<<20) != nil {
			return // a dead or lagging peer just contributes nothing
		}
		mu.Lock()
		for _, sk := range inv.Keys {
			remote[sk] = true
		}
		mu.Unlock()
	})

	// Gained: owned on the current ring but not held here.
	var gained []pipeline.StageKey
	for sk := range remote {
		if cl.owns(sk.Stage, sk.Key) && !cl.stages.Held(sk.Stage, sk.Key) {
			gained = append(gained, sk)
		}
	}
	// Lost: held here but no longer ours — counted, never deleted
	// (they still serve peer fetches until evicted naturally).
	var lost int64
	for _, sk := range cl.stages.Inventory() {
		if !cl.owns(sk.Stage, sk.Key) {
			lost++
		}
	}
	cl.keysLost.Store(lost)
	cl.rebalTotal.Store(int64(len(gained)))

	// Stream with bounded concurrency through the ordinary fetch walk
	// (owner-first, hedged), installing into memory + disk.
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, sk := range gained {
		if cl.ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer cl.rebalDone.Add(1)
			sealed, ok, err := cl.fetch(cl.ctx, sk.Stage, sk.Key)
			if err != nil || !ok {
				return // next sweep retries; a query meanwhile fetches or builds
			}
			if cl.stages.Install(sk.Stage, sk.Key, sealed) == nil {
				cl.rebalFetched.Add(1)
			}
		}()
	}
	wg.Wait()
}

// leave gossips this node's obituary: BeginDrain runs it so the fleet
// drops us by epoch bump instead of waiting out the lease. Best
// effort; lease expiry is the backstop. Its exchanges are bounded by
// the per-call timeout, not by close, so a close right after a drain
// still lets the obituary out.
func (cl *cluster) leave() {
	cl.dir.Leave()
	snap := cl.dir.Snapshot()
	cl.fanOut(cl.dir.Alive(), func(_ int, peer string) {
		cl.exchange(context.Background(), peer, snap)
	})
}

// --- replication ---

type repTask struct {
	stage, key string
	sealed     []byte
}

// replicate is the pipeline.Tiers.Replicate hook: it queues a freshly
// built artifact for the other members of its replica set and never
// blocks. The queue drops (counted) under pressure — replication is an
// availability optimisation, and the rebalance sweep is the backstop
// that re-converges anything dropped.
func (cl *cluster) replicate(stage, key string, sealed []byte) {
	select {
	case cl.replTasks <- repTask{stage, key, sealed}:
	default:
		cl.replicaDropped.Add(1)
	}
}

// pushLoop is one replication worker.
func (cl *cluster) pushLoop() {
	for {
		select {
		case <-cl.ctx.Done():
			return
		case t := <-cl.replTasks:
			cl.push(t)
		}
	}
}

// push writes the artifact to every replica-set member but self. The
// set is computed at push time, not enqueue time, so a ring change in
// between targets the right nodes.
func (cl *cluster) push(t repTask) {
	cl.fanOut(cl.replicaSet(t.stage, t.key), func(_ int, peer string) {
		cl.replicaPushes.Add(1)
		if err := cl.pushReplica(cl.ctx, peer, t); err != nil {
			cl.replicaPushErrs.Add(1)
		}
	})
}
