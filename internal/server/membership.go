package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"time"

	"obdrel/internal/member"
)

// This file is the membership side of cluster mode, which every
// cluster node runs: the gossip exchange endpoint, the heartbeat loop
// and the graceful leave. A -peers node runs it too; its ring is its
// pinned list, so for it the directory reports liveness without moving
// keys.

// onChange swaps the ring to the directory's new alive set — a no-op
// on a -peers node, whose ring is its pinned list.
func (cl *cluster) onChange(ch member.Change) {
	cl.setMembers(ch.Alive, ch.Epoch)
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
