package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"obdrel/internal/artifact"
)

// The tier tests use a trivial serializable stage: the artifact is an
// int64, the codec its little-endian dump.
const tierStage = "tierstage"

func init() {
	artifact.Register(tierStage, func(w *artifact.Writer, v int64) { w.U64(uint64(v)) },
		func(r *artifact.Reader) (int64, error) { return r.I64(), nil })
}

func tierKey(b byte) string {
	k := make([]byte, artifact.KeySize)
	for i := range k {
		k[i] = b
	}
	return string(k)
}

func getTier(t *testing.T, c *Cache, key string, builds *int, val int64) (int64, Result) {
	t.Helper()
	v, res, err := Get(context.Background(), c, tierStage, key, func(context.Context) (int64, error) {
		if builds != nil {
			*builds++
		}
		return val, nil
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	return v, res
}

func TestDiskTierSpillAndRestart(t *testing.T) {
	dir := t.TempDir()
	key := tierKey('a')

	c1 := NewCache(4)
	c1.SetTiers(Tiers{Dir: dir})
	builds := 0
	v, res := getTier(t, c1, key, &builds, 41)
	if v != 41 || builds != 1 || res.Source != SourceBuilt {
		t.Fatalf("cold get = %d builds=%d source=%q", v, builds, res.Source)
	}
	if st := c1.Stat(tierStage); st.Spills != 1 || st.Builds != 1 {
		t.Fatalf("spills=%d builds=%d", st.Spills, st.Builds)
	}
	if _, err := os.Stat(filepath.Join(dir, artifact.FileName(tierStage, key))); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// "Restart": a fresh cache over the same directory serves from
	// disk with zero builds.
	c2 := NewCache(4)
	c2.SetTiers(Tiers{Dir: dir})
	builds = 0
	v, res = getTier(t, c2, key, &builds, -1)
	if v != 41 || builds != 0 || res.Source != SourceDisk {
		t.Fatalf("restart get = %d builds=%d source=%q", v, builds, res.Source)
	}
	st := c2.Stat(tierStage)
	if st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("disk hits=%d builds=%d", st.DiskHits, st.Builds)
	}
	// Second get is a memory hit.
	_, res = getTier(t, c2, key, nil, -1)
	if !res.Hit || res.Source != SourceMem {
		t.Fatalf("warm get hit=%v source=%q", res.Hit, res.Source)
	}
}

func TestDiskTierCorruptFileRejectedAndRebuilt(t *testing.T) {
	dir := t.TempDir()
	key := tierKey('b')
	path := filepath.Join(dir, artifact.FileName(tierStage, key))
	if err := os.WriteFile(path, []byte("garbage, not an OBDA container"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	c.SetTiers(Tiers{Dir: dir})
	builds := 0
	v, res := getTier(t, c, key, &builds, 7)
	if v != 7 || builds != 1 || res.Source != SourceBuilt {
		t.Fatalf("get over corrupt file = %d builds=%d source=%q", v, builds, res.Source)
	}
	st := c.Stat(tierStage)
	if st.DiskRejects != 1 {
		t.Fatalf("disk rejects = %d", st.DiskRejects)
	}
	// The corrupt file was replaced by the rebuilt spill.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("rebuilt spill missing: %v", err)
	}
	if _, err := artifact.Open(data, tierStage, key); err != nil {
		t.Fatalf("rebuilt spill invalid: %v", err)
	}
}

func TestDiskTierFutureVersionKept(t *testing.T) {
	dir := t.TempDir()
	key := tierKey('v')
	sealed, err := artifact.Seal(tierStage, key, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sealed[4] = 99 // bump the version field
	path := filepath.Join(dir, artifact.FileName(tierStage, key))
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	c.SetTiers(Tiers{Dir: dir})
	if v, _ := getTier(t, c, key, nil, 5); v != 5 {
		t.Fatalf("got %d", v)
	}
	// The future-version file is rejected (counted) but not deleted
	// by the load path; the local rebuild then atomically replaces it.
	if st := c.Stat(tierStage); st.DiskRejects != 1 {
		t.Fatalf("disk rejects = %d", st.DiskRejects)
	}
}

func TestPeerTierFillAndDegrade(t *testing.T) {
	key := tierKey('c')
	sealed, err := artifact.Encode(tierStage, key, int64(1234))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fill", func(t *testing.T) {
		dir := t.TempDir()
		c := NewCache(4)
		fetches := 0
		c.SetTiers(Tiers{Dir: dir, Fetch: func(ctx context.Context, stage, k string) ([]byte, bool, error) {
			fetches++
			if stage != tierStage || k != key {
				t.Errorf("fetch for %s/%s", stage, k)
			}
			return sealed, true, nil
		}})
		builds := 0
		v, res := getTier(t, c, key, &builds, -1)
		if v != 1234 || builds != 0 || res.Source != SourcePeer || fetches != 1 {
			t.Fatalf("peer fill = %d builds=%d source=%q fetches=%d", v, builds, res.Source, fetches)
		}
		st := c.Stat(tierStage)
		if st.PeerHits != 1 || st.Builds != 0 {
			t.Fatalf("peer hits=%d builds=%d", st.PeerHits, st.Builds)
		}
		// The fill was persisted: a fresh cache over the same dir
		// reads it from disk.
		c2 := NewCache(4)
		c2.SetTiers(Tiers{Dir: dir})
		if v, res := getTier(t, c2, key, &builds, -1); v != 1234 || res.Source != SourceDisk {
			t.Fatalf("fill not persisted: %d %q", v, res.Source)
		}
	})

	t.Run("dead peer degrades to build", func(t *testing.T) {
		c := NewCache(4)
		c.SetTiers(Tiers{Fetch: func(context.Context, string, string) ([]byte, bool, error) {
			return nil, false, errors.New("connection refused")
		}})
		builds := 0
		v, res := getTier(t, c, key, &builds, 9)
		if v != 9 || builds != 1 || res.Source != SourceBuilt {
			t.Fatalf("degrade = %d builds=%d source=%q", v, builds, res.Source)
		}
		if st := c.Stat(tierStage); st.PeerErrors != 1 {
			t.Fatalf("peer errors = %d", st.PeerErrors)
		}
	})

	t.Run("corrupt peer payload degrades to build", func(t *testing.T) {
		c := NewCache(4)
		bad := append([]byte(nil), sealed...)
		bad[len(bad)-1] ^= 0xFF
		c.SetTiers(Tiers{Fetch: func(context.Context, string, string) ([]byte, bool, error) {
			return bad, true, nil
		}})
		builds := 0
		v, _ := getTier(t, c, key, &builds, 9)
		if v != 9 || builds != 1 {
			t.Fatalf("corrupt fill = %d builds=%d", v, builds)
		}
		if st := c.Stat(tierStage); st.PeerErrors != 1 || st.PeerHits != 0 {
			t.Fatalf("peer errors=%d hits=%d", st.PeerErrors, st.PeerHits)
		}
	})

	t.Run("miss falls through to build", func(t *testing.T) {
		c := NewCache(4)
		c.SetTiers(Tiers{Fetch: func(context.Context, string, string) ([]byte, bool, error) {
			return nil, false, nil
		}})
		builds := 0
		if v, _ := getTier(t, c, key, &builds, 3); v != 3 || builds != 1 {
			t.Fatalf("miss = %d builds=%d", v, builds)
		}
		if st := c.Stat(tierStage); st.PeerErrors != 0 {
			t.Fatalf("peer errors = %d", st.PeerErrors)
		}
	})
}

func TestNonSerializableStageSkipsTiers(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4)
	fetches := 0
	c.SetTiers(Tiers{Dir: dir, Fetch: func(context.Context, string, string) ([]byte, bool, error) {
		fetches++
		return nil, false, nil
	}})
	v, _, err := Get(context.Background(), c, "nocodec", tierKey('d'), func(context.Context) (string, error) {
		return "live", nil
	})
	if err != nil || v != "live" {
		t.Fatalf("get = %q %v", v, err)
	}
	if fetches != 0 {
		t.Fatalf("peer tier consulted for non-serializable stage")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("non-serializable stage spilled %d files", len(ents))
	}
}

func TestSealed(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4)
	c.SetTiers(Tiers{Dir: dir})
	key := tierKey('e')

	if _, ok := c.Sealed(tierStage, key); ok {
		t.Fatal("Sealed served a cold key")
	}
	getTier(t, c, key, nil, 55)
	sealed, ok := c.Sealed(tierStage, key)
	if !ok {
		t.Fatal("Sealed missed a resident key")
	}
	if v, err := artifact.Decode(tierStage, key, sealed); err != nil || v.(int64) != 55 {
		t.Fatalf("Sealed round trip = %v %v", v, err)
	}
	// Evict memory (fresh cache, same dir): Sealed serves raw disk bytes.
	c2 := NewCache(4)
	c2.SetTiers(Tiers{Dir: dir})
	sealed2, ok := c2.Sealed(tierStage, key)
	if !ok {
		t.Fatal("Sealed missed the disk tier")
	}
	if string(sealed2) != string(sealed) {
		t.Fatal("disk bytes differ from encoded bytes")
	}
	// Non-serializable stages are never served.
	if _, ok := c.Sealed("nocodec", key); ok {
		t.Fatal("Sealed served a stage without codec")
	}
}

func TestWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	seed := NewCache(8)
	seed.SetTiers(Tiers{Dir: dir})
	keys := []string{tierKey('1'), tierKey('2'), tierKey('3')}
	for i, k := range keys {
		getTier(t, seed, k, nil, int64(100+i))
	}
	// One corrupt file rides along.
	badKey := tierKey('9')
	os.WriteFile(filepath.Join(dir, artifact.FileName(tierStage, badKey)), []byte("junk"), 0o644)

	c := NewCache(8)
	c.SetTiers(Tiers{Dir: dir})
	var lastDone, lastTotal int
	ws := c.WarmFromDisk(context.Background(), func(stage, key string) bool {
		return key != keys[2] // ownership filter excludes one key
	}, 0, func(done, total int) { lastDone, lastTotal = done, total })
	if ws.Loaded != 2 || ws.Rejected != 1 {
		t.Fatalf("warm = %+v", ws)
	}
	if lastDone != lastTotal || lastTotal != 3 {
		t.Fatalf("progress = %d/%d", lastDone, lastTotal)
	}
	// Warmed keys are memory hits; the excluded key comes from disk.
	builds := 0
	if _, res := getTier(t, c, keys[0], &builds, -1); !res.Hit {
		t.Fatalf("warmed key not resident: %+v", res)
	}
	if _, res := getTier(t, c, keys[2], &builds, -1); res.Source != SourceDisk {
		t.Fatalf("excluded key source = %q", res.Source)
	}
	if builds != 0 {
		t.Fatalf("builds = %d", builds)
	}
	// The corrupt file was deleted by the sweep.
	if _, err := os.Stat(filepath.Join(dir, artifact.FileName(tierStage, badKey))); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not removed: %v", err)
	}

	// Bounded sweep: limit 1 loads exactly one artifact.
	c3 := NewCache(8)
	c3.SetTiers(Tiers{Dir: dir})
	ws = c3.WarmFromDisk(context.Background(), nil, 1, nil)
	if ws.Loaded != 1 {
		t.Fatalf("bounded warm = %+v", ws)
	}
}
