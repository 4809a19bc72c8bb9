package obdrel

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"obdrel/internal/core"
	"obdrel/internal/tablefile"
)

// This file is the analyzer half of the mmap-ready hybrid tables (see
// internal/tablefile for the on-disk format): when Config.TableDir is
// set, the hybrid engine's per-block lookup tables are spilled on
// first build and served from a shared read-only mapping on every
// later build — across analyzer instances and across daemon restarts.
//
// Safety rests on the key: a table file is named by, and embeds,
// fp16("hybridtable", chip-stage fingerprint, table geometry). The
// chip-stage fingerprint transitively covers every model knob the
// tables depend on (design, power, thermal, variation, technology,
// voltage), and the geometry segment covers the table resolution and
// fill accuracy. A file whose embedded key does not match what the
// current configuration demands — stale after a model change, copied
// from elsewhere, or truncated/corrupted (checksum) — is rejected and
// rebuilt in place; it is never served.

// hybridTableKey returns the table-file key for this analyzer's
// hybrid tables, canonicalized exactly as core.NewHybrid resolves its
// defaults so an explicit 100×100 and the zero-value default collide.
// The fill tag names how the block integrals were summed: entries
// filled by another summation differ in their low bits, so their files
// must miss rather than serve answers a fresh build would not give.
func (a *Analyzer) hybridTableKey() string {
	nl, nb := a.cfg.resolvedHybridGrid()
	return fp16("hybridtable", a.chipKey, fmt.Sprintf("nl=%d|nb=%d|l0=%d|fill=series", nl, nb, a.cfg.resolvedL0()))
}

// tableStats counts table-file traffic process-wide; obdreld surfaces
// them as metrics so operators can see whether the spill directory is
// actually serving (loads), filling (saves), or fighting stale files
// (rejects).
var tableStats struct{ loads, saves, rejects atomic.Uint64 }

// TableFileStats reports the process-wide hybrid table-file counters:
// engines served from a file, tables spilled to a file, and files
// rejected (key mismatch or corruption).
func TableFileStats() (loads, saves, rejects uint64) {
	return tableStats.loads.Load(), tableStats.saves.Load(), tableStats.rejects.Load()
}

// tableFiles caches open mappings by path so every analyzer (and
// every request) serving the same tables shares one mapping. Entries
// live for the process lifetime: engines alias the mapped memory, so
// an entry can never be unmapped while any engine built from it might
// still be queried.
var tableFiles struct {
	mu sync.Mutex
	m  map[string]*tablefile.File
}

// openTableFile returns a verified mapping of path whose embedded key
// equals key, from the process cache when possible. Corrupt files and
// key mismatches count as rejects and return an error; a missing file
// returns fs.ErrNotExist uncounted (first build, not a fault).
func openTableFile(path, key string) (*tablefile.File, error) {
	tableFiles.mu.Lock()
	defer tableFiles.mu.Unlock()
	if f, ok := tableFiles.m[path]; ok {
		if f.Key == key {
			return f, nil
		}
		// The file was rewritten under a new key since this mapping was
		// cached; the old mapping stays alive for its engines but no
		// longer serves this path.
		delete(tableFiles.m, path)
	}
	f, err := tablefile.Open(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			tableStats.rejects.Add(1)
		}
		return nil, err
	}
	if f.Key != key {
		tableStats.rejects.Add(1)
		f.Close()
		return nil, fmt.Errorf("obdrel: table file %s embeds key %s, want %s", path, f.Key, key)
	}
	if tableFiles.m == nil {
		tableFiles.m = make(map[string]*tablefile.File)
	}
	tableFiles.m[path] = f
	return f, nil
}

// hybridEngine builds the hybrid engine, serving the tables from
// Config.TableDir when set: load a verified file if one exists, else
// fill the tables and spill them for the next process. Called with
// a.mu held (from engine); the file-level lock is tableFiles.mu.
func (a *Analyzer) hybridEngine() (core.Engine, error) {
	opts := core.HybridOptions{
		NL: a.cfg.HybridNL, NB: a.cfg.HybridNB, L0: a.cfg.L0,
		Workers: a.cfg.Workers,
	}
	if a.cfg.TableDir == "" {
		e, err := core.NewHybrid(a.chip, opts)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	key := a.hybridTableKey()
	path := filepath.Join(a.cfg.TableDir, key+".obdt")
	if f, err := openTableFile(path, key); err == nil {
		e, err := core.NewHybridFromTables(a.chip, f.Ls(), f.Bs(), f.Blocks())
		if err == nil {
			tableStats.loads.Add(1)
			return e, nil
		}
		// Key matched but the shape does not fit this chip — only
		// possible for a forged file, since the key covers the
		// geometry. Treat as a reject and rebuild.
		tableStats.rejects.Add(1)
	}
	e, err := core.NewHybrid(a.chip, opts)
	if err != nil {
		return nil, err
	}
	ls, bs, blocks := e.TableData()
	// A failed spill (read-only dir, disk full) is not an engine
	// failure: the tables are already in memory and every query works;
	// only the next process loses the warm start.
	if werr := tablefile.Write(path, key, ls, bs, blocks); werr == nil {
		tableStats.saves.Add(1)
	}
	return e, nil
}
