package obdrel

// hybridTables is the hybrid stage's artifact (Section IV-E): the
// shared ln(t/α) and b axes and each block's row-major grid of ln D_j,
// exactly as core.Hybrid.TableData returns them. The engine built from
// it by core.NewHybridFromTables aliases these slices, so the stage
// cache and every analyzer's engine share one copy.
type hybridTables struct {
	ls, bs []float64
	blocks [][]float64
}

// SizeBytes charges the tables against the stage cache's per-stage
// byte budget, as the PCA is charged.
func (h *hybridTables) SizeBytes() int64 {
	n := len(h.ls) + len(h.bs)
	for _, b := range h.blocks {
		n += len(b)
	}
	return 8 * int64(n)
}

// hybridTableKey returns the hybrid stage key for a chip, keyed by the
// chip stage's fingerprint (the transitive identity of every model
// knob the tables depend on) and the table geometry, canonicalized
// exactly as core.NewHybrid resolves its defaults so an explicit
// 100×100 and the zero-value default collide. The tags name how the
// entries were filled and what they hold: fill=mgf entries are the
// closed-form series, with the l0 midpoint rule where it misses (so l0
// stays in the key). Entries filled another way differ in their low
// digits, and linear tables hold D_j rather than ln D_j, so artifacts
// of either kind miss rather than serve answers a fresh build would
// not give.
func hybridTableKey(chipKey string, cfg *Config) string {
	nl, nb := cfg.resolvedHybridGrid()
	var buf [128]byte
	return keyText(buf[:0]).line(StageHybrid).line(chipKey).
		str("nl=").d(int64(nl)).str("|nb=").d(int64(nb)).str("|l0=").d(int64(cfg.resolvedL0())).
		str("|fill=mgf|interp=log").end().sum()
}
