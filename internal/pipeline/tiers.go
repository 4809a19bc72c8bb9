package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"

	"obdrel/internal/artifact"
	"obdrel/internal/obs"
)

// Tiers configures the cache hierarchy below the in-process LRU. A
// miss resolves disk → peer → build inside the flight goroutine, so
// coalesced waiters share one tier walk the same way they share one
// build, and the last-waiter-cancels contract covers peer fetches.
//
// Both tiers apply only to stages with a registered artifact codec;
// everything else (the registry's live analyzers, test stages)
// behaves exactly as before tiers existed.
type Tiers struct {
	// Dir is the disk spill directory; "" disables the disk tier.
	// Artifacts are written with the temp+rename discipline and
	// checksum-verified on load — a corrupt file is rejected, deleted
	// and rebuilt (files from a future format version are rejected
	// but left in place for the newer node that wrote them).
	Dir string
	// Fetch asks the cluster for a sealed artifact: (sealed, true, nil)
	// on success, (nil, false, nil) when no peer has it, and an error
	// when the fetch failed (dead peer, bad response). Errors degrade
	// to a local build — they are counted, never surfaced to the
	// caller. Nil disables the peer tier.
	Fetch func(ctx context.Context, stage, key string) (sealed []byte, ok bool, err error)
}

// SetTiers installs the disk and peer tiers. Flights in progress keep
// the configuration they started with.
func (c *Cache) SetTiers(t Tiers) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tiers = t
}

// Tiers returns the installed tier configuration.
func (c *Cache) Tiers() Tiers {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tiers
}

// resolveFlight satisfies a flight from the cheapest tier that has
// the artifact: disk, then peer, then the stage build, whose artifact
// it spills to the disk tier. It returns the artifact and its
// provenance.
func (c *Cache) resolveFlight(bctx context.Context, stage, key string, build func(context.Context) (any, error), st *stageState, t Tiers) (any, string, error) {
	_, serializable := artifact.Lookup(stage)
	if serializable {
		if t.Dir != "" {
			if v, ok := c.diskLoad(bctx, stage, key, t.Dir, st); ok {
				return v, SourceDisk, nil
			}
		}
		if t.Fetch != nil && bctx.Err() == nil {
			if v, ok := c.peerFill(bctx, stage, key, t, st); ok {
				return v, SourcePeer, nil
			}
		}
	}
	v, err := buildProtected(bctx, stage, key, build)
	if err == nil && serializable && t.Dir != "" {
		if sealed, encErr := artifact.Encode(stage, key, v); encErr != nil {
			st.stats.spillFails.Add(1)
		} else {
			c.spillSealed(stage, key, sealed, t.Dir, st)
		}
	}
	return v, SourceBuilt, err
}

// diskLoad reads and decodes one artifact from the spill directory.
// Any validation or decode failure rejects the file: it is counted,
// removed (so the rebuilt artifact can take its place), and treated
// as a miss. A future-version container is counted but kept.
func (c *Cache) diskLoad(bctx context.Context, stage, key, dir string, st *stageState) (any, bool) {
	path := filepath.Join(dir, artifact.FileName(stage, key))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	v, err := artifact.Decode(stage, key, data)
	if err != nil {
		st.stats.diskRejects.Add(1)
		if !errors.Is(err, artifact.ErrVersion) {
			os.Remove(path)
		}
		obs.Annotate(bctx, "disk_reject", err.Error())
		return nil, false
	}
	st.stats.diskHits.Add(1)
	return v, true
}

// peerFill fetches a sealed artifact from the cluster, decodes it,
// and spills the sealed bytes to the local disk tier so the fill
// survives a restart. Every failure mode — dead peer, corrupt
// payload — is counted and degrades to a local build.
func (c *Cache) peerFill(bctx context.Context, stage, key string, t Tiers, st *stageState) (any, bool) {
	sealed, ok, err := t.Fetch(bctx, stage, key)
	if err != nil {
		st.stats.peerErrors.Add(1)
		obs.Annotate(bctx, "peer_error", err.Error())
		return nil, false
	}
	if !ok {
		return nil, false
	}
	v, err := artifact.Decode(stage, key, sealed)
	if err != nil {
		// The peer handed us bytes that fail their own checksum or
		// schema: reject the fill, build locally.
		st.stats.peerErrors.Add(1)
		obs.Annotate(bctx, "peer_error", err.Error())
		return nil, false
	}
	st.stats.peerHits.Add(1)
	if t.Dir != "" {
		c.spillSealed(stage, key, sealed, t.Dir, st)
	}
	return v, true
}

func (c *Cache) spillSealed(stage, key string, sealed []byte, dir string, st *stageState) {
	if err := artifact.WriteFile(dir, stage, key, sealed); err != nil {
		st.stats.spillFails.Add(1)
		return
	}
	st.stats.spills.Add(1)
}

// Peek returns the live artifact for (stage, key) without touching
// hit/miss counters or starting a build.
func (c *Cache) Peek(stage, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stages[stage]
	if !ok {
		return nil, false
	}
	return st.get(key)
}

// Sealed returns the encoded container for (stage, key) from memory
// or disk — the read side of the peer cache-fill protocol. It never
// builds: a node only serves what it already has, so a fetch for a
// cold key 404s and the requester builds locally.
//
// A resident artifact is encoded on its first serve, and the container
// is kept with its LRU entry, charged to StageByteBudget, so later
// serves return it without encoding again. Replacing or evicting the
// entry drops it, and so does a stage over its byte budget, before any
// artifact is evicted. The returned bytes are shared and read-only:
// callers must not modify them.
func (c *Cache) Sealed(stage, key string) ([]byte, bool) {
	if _, ok := artifact.Lookup(stage); !ok {
		return nil, false
	}
	c.mu.Lock()
	st := c.state(stage)
	// No hit/miss accounting here: serving a peer is not a local
	// cache lookup.
	e, have := st.lru.Get(key)
	var sealed []byte
	if have {
		sealed = e.sealed
	}
	dir := c.tiers.Dir
	c.mu.Unlock()
	if sealed != nil {
		return sealed, true
	}
	if have {
		// Encode outside the lock: a PCA takes milliseconds.
		if sealed, err := artifact.Encode(stage, key, e.v); err == nil {
			c.mu.Lock()
			// Keep the container only on the entry it encodes: after a
			// put or an eviction in the meantime, that entry is gone.
			if cur, ok := st.lru.Get(key); ok && cur == e && e.sealed == nil {
				e.sealed = sealed
				st.bytes += int64(len(sealed))
				st.evict()
			}
			c.mu.Unlock()
			return sealed, true
		}
	}
	if dir == "" {
		return nil, false
	}
	path := filepath.Join(dir, artifact.FileName(stage, key))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	// Verify before serving: shipping a corrupt container to a peer
	// would waste its fetch (it re-validates anyway). Same rejection
	// policy as diskLoad.
	if _, err := artifact.Open(data, stage, key); err != nil {
		st.stats.diskRejects.Add(1)
		if !errors.Is(err, artifact.ErrVersion) {
			os.Remove(path)
		}
		return nil, false
	}
	return data, true
}

// WarmStats reports one anti-entropy sweep.
type WarmStats struct {
	// Loaded artifacts entered the memory LRU; Skipped were already
	// resident or beyond the sweep bound; Rejected failed validation.
	Loaded, Skipped, Rejected int
}

// WarmFromDisk is the bounded anti-entropy sweep: it walks the disk
// tier, and loads into memory up to limit artifacts for which
// owns(stage, key) is true (nil owns means everything). Corrupt files
// are rejected with diskLoad's delete-and-rebuild policy. progress
// (optional) observes (done, total) after each candidate, which is
// what /readyz reports during warm-up.
func (c *Cache) WarmFromDisk(ctx context.Context, owns func(stage, key string) bool, limit int, progress func(done, total int)) WarmStats {
	var ws WarmStats
	dir := c.Tiers().Dir
	if dir == "" {
		return ws
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return ws
	}
	type cand struct{ stage, key string }
	var cands []cand
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		stage, key, ok := artifact.ParseFileName(e.Name())
		if !ok {
			continue
		}
		if _, ok := artifact.Lookup(stage); !ok {
			continue
		}
		if owns != nil && !owns(stage, key) {
			continue
		}
		if limit > 0 && len(cands) == limit {
			ws.Skipped++
			continue
		}
		cands = append(cands, cand{stage, key})
	}
	total := len(cands)
	for i, cd := range cands {
		if ctx.Err() != nil {
			ws.Skipped += total - i
			break
		}
		if _, resident := c.Peek(cd.stage, cd.key); resident {
			ws.Skipped++
		} else {
			c.mu.Lock()
			st := c.state(cd.stage)
			c.mu.Unlock()
			if v, ok := c.diskLoad(ctx, cd.stage, cd.key, dir, st); ok {
				c.mu.Lock()
				st.put(cd.key, v)
				c.mu.Unlock()
				ws.Loaded++
			} else {
				ws.Rejected++
			}
		}
		if progress != nil {
			progress(i+1, total)
		}
	}
	return ws
}
