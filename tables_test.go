package obdrel_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obdrel"
	"obdrel/internal/tablefile"
)

// tableConfig returns a fast config with the hybrid tables spilled to
// (and served from) dir. Small tables keep the fill cheap.
func tableConfig(dir string) *obdrel.Config {
	cfg := fastConfig()
	cfg.HybridNL, cfg.HybridNB = 24, 24
	cfg.TableDir = dir
	return cfg
}

// uncachedAnalyzer builds with no stage cache, so each analyzer
// construction is independent.
func uncachedAnalyzer(t *testing.T, d *obdrel.Design, cfg *obdrel.Config) *obdrel.Analyzer {
	t.Helper()
	an, err := obdrel.NewAnalyzerCtxIn(context.Background(), nil, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func hybridLifetime(t *testing.T, d *obdrel.Design, cfg *obdrel.Config) float64 {
	t.Helper()
	an := uncachedAnalyzer(t, d, cfg)
	life, err := an.LifetimePPM(10, obdrel.MethodHybrid)
	if err != nil {
		t.Fatal(err)
	}
	return life
}

// TestTableDirRoundTrip is the end-to-end contract of the table spill:
// the first build writes a file, the second build loads it, and the
// file-served engine answers bit-identically to the freshly built one.
func TestTableDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := obdrel.C1()

	loads0, saves0, rejects0 := obdrel.TableFileStats()

	fresh := hybridLifetime(t, d, tableConfig("")) // no spill: reference
	spilled := hybridLifetime(t, d, tableConfig(dir))
	if spilled != fresh {
		t.Errorf("spill-path lifetime %v != in-memory %v", spilled, fresh)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".obdt") {
		t.Fatalf("table dir after first build: %v, want one .obdt file", entries)
	}

	loaded := hybridLifetime(t, d, tableConfig(dir))
	if loaded != fresh {
		t.Errorf("file-served lifetime %v != in-memory %v", loaded, fresh)
	}

	loads1, saves1, rejects1 := obdrel.TableFileStats()
	if saves1-saves0 != 1 {
		t.Errorf("saves advanced by %d, want 1", saves1-saves0)
	}
	if loads1-loads0 < 1 {
		t.Errorf("loads advanced by %d, want ≥ 1", loads1-loads0)
	}
	if rejects1 != rejects0 {
		t.Errorf("rejects advanced by %d, want 0", rejects1-rejects0)
	}
}

// TestTableDirRejectsStaleAndCorrupt verifies the two never-serve
// guarantees: a file written under a different model configuration
// (fingerprint mismatch) and a bit-flipped file (checksum mismatch)
// are both rejected and rebuilt, never served.
func TestTableDirRejectsStaleAndCorrupt(t *testing.T) {
	d := obdrel.C1()

	t.Run("stale key", func(t *testing.T) {
		dir := t.TempDir()
		// Build under the default VDD, then under VDD=1.1: two files,
		// two keys (VDD reaches the chip fingerprint through the
		// weibull stage).
		hybridLifetime(t, d, tableConfig(dir))
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("want one table file, got %v (%v)", entries, err)
		}
		oldPath := filepath.Join(dir, entries[0].Name())

		cfgV11 := func() *obdrel.Config {
			c := tableConfig(dir)
			c.VDD = 1.1
			return c
		}
		want := hybridLifetime(t, d, cfgV11())
		entries, err = os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var freshPath string
		for _, e := range entries {
			if p := filepath.Join(dir, e.Name()); p != oldPath {
				freshPath = p
			}
		}
		if freshPath == "" {
			t.Fatal("second config produced no new table file — key did not change with VDD")
		}
		// Clobber the VDD=1.1 file with the default-VDD payload: the
		// filename now promises one key, the embedded key is another —
		// a stale spill directory after a model change.
		stale, err := os.ReadFile(oldPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(freshPath, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, rejects0 := obdrel.TableFileStats()
		got := hybridLifetime(t, d, cfgV11())
		if got != want {
			t.Errorf("post-reject rebuild lifetime %v, want %v", got, want)
		}
		_, _, rejects1 := obdrel.TableFileStats()
		if rejects1-rejects0 < 1 {
			t.Errorf("rejects advanced by %d, want ≥ 1", rejects1-rejects0)
		}
	})

	// Tables filled before the key carried a fill tag differ from a
	// fresh fill in their low bits. A directory spilled by such a build
	// must miss by name, and its payload under the current name must be
	// rejected; neither may serve.
	t.Run("untagged fill key", func(t *testing.T) {
		want := hybridLifetime(t, d, tableConfig(""))
		src := t.TempDir()
		hybridLifetime(t, d, tableConfig(src))
		entries, err := os.ReadDir(src)
		if err != nil || len(entries) != 1 {
			t.Fatalf("want one table file, got %v (%v)", entries, err)
		}
		f, err := tablefile.Open(filepath.Join(src, entries[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Doubled entries make any served old table visible in the answer.
		old := make([][]float64, len(f.Blocks()))
		for k, blk := range f.Blocks() {
			for _, v := range blk {
				old[k] = append(old[k], 2*v)
			}
		}

		dir := t.TempDir()
		an := uncachedAnalyzer(t, d, tableConfig(dir))
		oldKey, newKey := an.UntaggedHybridTableKey(), an.HybridTableKey()
		if oldKey == newKey {
			t.Fatal("fill tag does not change the table key")
		}
		oldPath, newPath := filepath.Join(dir, oldKey+".obdt"), filepath.Join(dir, newKey+".obdt")
		if err := tablefile.Write(oldPath, oldKey, f.Ls(), f.Bs(), old); err != nil {
			t.Fatal(err)
		}

		loads0, saves0, _ := obdrel.TableFileStats()
		if got := hybridLifetime(t, d, tableConfig(dir)); got != want {
			t.Errorf("lifetime beside an untagged file %v, want %v", got, want)
		}
		loads1, saves1, rejects1 := obdrel.TableFileStats()
		if loads1 != loads0 || saves1-saves0 != 1 {
			t.Errorf("loads +%d, saves +%d; want the untagged file missed and a fresh spill", loads1-loads0, saves1-saves0)
		}
		if _, err := os.Stat(newPath); err != nil {
			t.Fatalf("no table spilled under the tagged key: %v", err)
		}

		stale, err := os.ReadFile(oldPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newPath, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := hybridLifetime(t, d, tableConfig(dir)); got != want {
			t.Errorf("post-reject rebuild lifetime %v, want %v", got, want)
		}
		if _, _, rejects2 := obdrel.TableFileStats(); rejects2-rejects1 < 1 {
			t.Errorf("rejects advanced by %d, want ≥ 1", rejects2-rejects1)
		}
	})

	t.Run("corrupt payload", func(t *testing.T) {
		dir := t.TempDir()
		want := hybridLifetime(t, d, tableConfig(dir))
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("want one table file, got %v (%v)", entries, err)
		}
		path := filepath.Join(dir, entries[0].Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-5] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, rejects0 := obdrel.TableFileStats()
		got := hybridLifetime(t, d, tableConfig(dir))
		if got != want {
			t.Errorf("post-corruption rebuild lifetime %v, want %v", got, want)
		}
		_, _, rejects1 := obdrel.TableFileStats()
		if rejects1-rejects0 < 1 {
			t.Errorf("rejects advanced by %d, want ≥ 1", rejects1-rejects0)
		}
	})
}

// TestTableServedZeroAlloc extends the zero-allocation gate to the
// mmap-served hybrid engine: queries through tables aliasing a shared
// read-only mapping must be exactly as allocation-free as the
// in-memory ones.
func TestTableServedZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	d := obdrel.C1()
	hybridLifetime(t, d, tableConfig(dir)) // spill

	an := uncachedAnalyzer(t, d, tableConfig(dir))
	if _, err := an.FailureProb(1e4, obdrel.MethodHybrid); err != nil {
		t.Fatal(err) // warm: builds the engine from the file
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := an.FailureProb(1e4, obdrel.MethodHybrid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm file-served FailureProb allocates %v per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := an.LifetimePPM(10, obdrel.MethodHybrid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm file-served LifetimePPM allocates %v per op, want 0", allocs)
	}
}
