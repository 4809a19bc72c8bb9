package pipeline

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"obdrel/internal/artifact"
)

// countStage is a serializable stage whose codec counts its encodes.
// Its artifact reports a fixed size, so the tests can tell the
// artifact's own charge from a kept container's.
const countStage = "countstage"

type counted int64

const countedSize = 1000

func (counted) SizeBytes() int64 { return countedSize }

var countEncodes atomic.Int64

func init() {
	artifact.Register(countStage, func(w *artifact.Writer, v counted) {
		countEncodes.Add(1)
		w.U64(uint64(v))
	}, func(r *artifact.Reader) (counted, error) { return counted(r.I64()), nil })
}

func getCounted(t *testing.T, c *Cache, key string, val counted) {
	t.Helper()
	if _, _, err := Get(context.Background(), c, countStage, key, func(context.Context) (counted, error) {
		return val, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// sealedOf returns what Sealed serves for key, failing on a miss.
func sealedOf(t *testing.T, c *Cache, key string) []byte {
	t.Helper()
	sealed, ok := c.Sealed(countStage, key)
	if !ok {
		t.Fatalf("Sealed missed resident key %q", key[:1])
	}
	return sealed
}

func wantBytes(t *testing.T, c *Cache, want int64, when string) {
	t.Helper()
	if got := c.Stat(countStage).Bytes; got != want {
		t.Fatalf("%s: StageStat.Bytes = %d, want %d", when, got, want)
	}
}

// encodeOf is artifact.Encode of the entry resident under key, made
// without counting.
func encodeOf(t *testing.T, c *Cache, key string) []byte {
	t.Helper()
	v, ok := c.Peek(countStage, key)
	if !ok {
		t.Fatalf("key %q not resident", key[:1])
	}
	defer countEncodes.Add(-1)
	sealed, err := artifact.Encode(countStage, key, v)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestSealedEncodesOnce: repeated serves of one resident artifact
// encode it once and return the same bytes, which equal
// artifact.Encode of the entry; the kept container is charged to the
// stage's bytes, and a re-put, an eviction and a rebuild of another
// value each drop it with its charge.
func TestSealedEncodesOnce(t *testing.T) {
	c := NewCache(2)
	key := tierKey('s')
	getCounted(t, c, key, 5)
	wantBytes(t, c, countedSize, "built")

	before := countEncodes.Load()
	first := sealedOf(t, c, key)
	for i := 0; i < 9; i++ {
		if again := sealedOf(t, c, key); &again[0] != &first[0] {
			t.Fatal("a later Sealed returned a different container")
		}
	}
	if n := countEncodes.Load() - before; n != 1 {
		t.Fatalf("10 serves made %d encodes, want 1", n)
	}
	if !bytes.Equal(first, encodeOf(t, c, key)) {
		t.Fatal("kept container differs from artifact.Encode of its entry")
	}
	kept := countedSize + int64(len(first))
	wantBytes(t, c, kept, "served")

	// A re-put (a flight's completion, WarmFromDisk) replaces the entry:
	// its container and charge go with it.
	c.mu.Lock()
	c.state(countStage).put(key, counted(5))
	c.mu.Unlock()
	wantBytes(t, c, countedSize, "after re-put")
	if got := sealedOf(t, c, key); !bytes.Equal(got, first) {
		t.Fatal("Sealed after a re-put does not encode the new entry")
	}
	wantBytes(t, c, kept, "served after re-put")

	// Eviction by capacity drops the entry and its container.
	getCounted(t, c, tierKey('t'), 1)
	getCounted(t, c, tierKey('u'), 2)
	wantBytes(t, c, 2*countedSize, "after eviction")
	if _, ok := c.Sealed(countStage, key); ok {
		t.Fatal("Sealed served an evicted key with no disk tier")
	}

	// A rebuild of another value serves that value's container.
	getCounted(t, c, key, 6)
	other, err := artifact.Encode(countStage, key, counted(6))
	if err != nil {
		t.Fatal(err)
	}
	if got := sealedOf(t, c, key); !bytes.Equal(got, other) || bytes.Equal(got, first) {
		t.Fatal("Sealed after a rebuild served the replaced value's container")
	}
	wantBytes(t, c, 2*countedSize+int64(len(other)), "served after rebuild")
}

// TestSealedAfterEvictionFallsToDisk: with a disk tier, an evicted
// artifact is served from its spill file, which holds the same bytes
// the kept container did.
func TestSealedAfterEvictionFallsToDisk(t *testing.T) {
	c := NewCache(1)
	c.SetTiers(Tiers{Dir: t.TempDir()})
	key := tierKey('d')
	getCounted(t, c, key, 8)
	kept := sealedOf(t, c, key)
	getCounted(t, c, tierKey('e'), 9)
	wantBytes(t, c, countedSize, "after eviction")
	before := countEncodes.Load()
	if got := sealedOf(t, c, key); !bytes.Equal(got, kept) {
		t.Fatal("disk tier served other bytes than the kept container")
	}
	if n := countEncodes.Load() - before; n != 0 {
		t.Fatalf("a disk serve made %d encodes", n)
	}
}

// padStage's artifact is unsized, and it encodes to a container of
// about that many bytes, so only kept containers count toward its
// budget. sizedPadStage's artifact reports that many bytes too, so it
// and its container each count.
const (
	padStage      = "padstage"
	sizedPadStage = "sizedpadstage"
)

type padded int

type sizedPadded int

func (v sizedPadded) SizeBytes() int64 { return int64(v) }

func init() {
	artifact.Register(padStage, func(w *artifact.Writer, v padded) { w.String(string(make([]byte, v))) },
		func(r *artifact.Reader) (padded, error) { return padded(len(r.String())), nil })
	artifact.Register(sizedPadStage, func(w *artifact.Writer, v sizedPadded) { w.String(string(make([]byte, v))) },
		func(r *artifact.Reader) (sizedPadded, error) { return sizedPadded(len(r.String())), nil })
}

// putPads builds one artifact of size v under each key of stage.
func putPads[T any](t *testing.T, c *Cache, stage string, v T, keys []string) {
	t.Helper()
	for _, k := range keys {
		if _, _, err := Get(context.Background(), c, stage, k, func(context.Context) (T, error) {
			return v, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealedByteBudgetCountsContainers: kept containers count toward
// StageByteBudget, and a stage over it drops the least recently served
// containers before it evicts any artifact.
func TestSealedByteBudgetCountsContainers(t *testing.T) {
	c := NewCache(64)
	keys := []string{tierKey('a'), tierKey('b'), tierKey('c')}
	putPads(t, c, padStage, padded(StageByteBudget/3), keys)
	if st := c.Stat(padStage); st.Entries != 3 || st.Bytes != 0 {
		t.Fatalf("unsized entries: %d entries, %d bytes; want 3, 0", st.Entries, st.Bytes)
	}
	var charged int64
	var last []byte
	for i, k := range keys {
		sealed, ok := c.Sealed(padStage, k)
		if !ok {
			t.Fatalf("Sealed missed key %d", i)
		}
		charged += int64(len(sealed))
		last = sealed
		if i < 2 {
			if st := c.Stat(padStage); st.Entries != 3 || st.Bytes != charged {
				t.Fatalf("after %d serves: %d entries, %d bytes; want 3, %d", i+1, st.Entries, st.Bytes, charged)
			}
		}
	}
	// Three containers of a third of the budget, each with its header,
	// pass it: the least recently served container goes, and every
	// artifact stays.
	if st := c.Stat(padStage); st.Entries != 3 || st.Bytes != charged-(charged/3) {
		t.Fatalf("over budget: %d entries, %d bytes; want 3, %d", st.Entries, st.Bytes, charged-(charged/3))
	}
	if got, ok := c.Sealed(padStage, keys[2]); !ok || &got[0] != &last[0] {
		t.Fatal("the most recently served container was not kept")
	}

	// Sized artifacts of a fifth of the budget: three of them and one
	// container fit, a second container does not, and the first served
	// goes while all three artifacts stay.
	fifth := sizedPadded(StageByteBudget / 5)
	putPads(t, c, sizedPadStage, fifth, keys)
	own := 3 * int64(fifth)
	var sealedLen int64
	for i, k := range keys[:2] {
		sealed, ok := c.Sealed(sizedPadStage, k)
		if !ok {
			t.Fatalf("Sealed missed sized key %d", i)
		}
		sealedLen = int64(len(sealed))
	}
	if st := c.Stat(sizedPadStage); st.Entries != 3 || st.Bytes != own+sealedLen {
		t.Fatalf("sized stage over budget: %d entries, %d bytes; want 3, %d", st.Entries, st.Bytes, own+sealedLen)
	}
	// Artifacts alone over the budget evict the least recently used:
	// the unserved keys[2], since a serve marks its entry used.
	more := []string{tierKey('d'), tierKey('e'), tierKey('f')}
	putPads(t, c, sizedPadStage, fifth, more)
	if st := c.Stat(sizedPadStage); st.Entries != 5 || st.Bytes != 5*int64(fifth) {
		t.Fatalf("six sized artifacts: %d entries, %d bytes; want 5, %d", st.Entries, st.Bytes, 5*int64(fifth))
	}
	if _, ok := c.Peek(sizedPadStage, keys[2]); ok {
		t.Fatal("the least recently used sized artifact was not evicted")
	}
}

// TestSealedInstallRace runs Sealed against the replacement of one
// key's entry. One writer evicts the key and rebuilds it as 1, 2, 3, …
// and after each rebuild the container Sealed serves must hold that
// value; readers serving concurrently must see values that never go
// backwards. A container kept for a replaced value would break both.
// Run it under -race.
func TestSealedInstallRace(t *testing.T) {
	// Capacity 1: building the filler evicts the key.
	c := NewCache(1)
	key, filler := tierKey('r'), tierKey('q')
	decode := func(sealed []byte) counted {
		v, err := artifact.Decode(countStage, key, sealed)
		if err != nil {
			t.Error(err)
			return -1
		}
		return v.(counted)
	}
	const n = 300
	getCounted(t, c, key, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := counted(0)
			for !stop.Load() {
				sealed, ok := c.Sealed(countStage, key)
				if !ok {
					continue // evicted: the filler is resident
				}
				v := decode(sealed)
				if v < last {
					t.Errorf("reader saw %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	for i := 1; i <= n; i++ {
		getCounted(t, c, filler, 0)
		getCounted(t, c, key, counted(i))
		if got := decode(sealedOf(t, c, key)); got != counted(i) {
			t.Fatalf("after rebuild %d Sealed served %d", i, got)
		}
	}
	stop.Store(true)
	wg.Wait()
	final := sealedOf(t, c, key)
	if !bytes.Equal(final, encodeOf(t, c, key)) {
		t.Fatal("final kept container differs from artifact.Encode of its entry")
	}
	wantBytes(t, c, countedSize+int64(len(final)), "final")
}
