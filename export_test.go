package obdrel

import (
	"fmt"
	"math"
)

// HybridTableKey exposes the hybrid stage key of (d, cfg) to the
// external tests.
func HybridTableKey(d *Design, cfg *Config) string {
	return hybridTableKey(StageFingerprints(d, cfg)[StageChip], cfg)
}

// UntaggedHybridTableKey is the hybrid key from before the key carried
// the interp tag: the key tables of linear D_j were stored under.
func UntaggedHybridTableKey(d *Design, cfg *Config) string {
	nl, nb := cfg.resolvedHybridGrid()
	return fp16(StageHybrid, StageFingerprints(d, cfg)[StageChip],
		fmt.Sprintf("nl=%d|nb=%d|l0=%d|fill=series", nl, nb, cfg.resolvedL0()))
}

// SeriesHybridTableKey is the hybrid key from before the closed-form
// fill: the key tables filled by the midpoint rule were stored under.
func SeriesHybridTableKey(d *Design, cfg *Config) string {
	nl, nb := cfg.resolvedHybridGrid()
	return fp16(StageHybrid, StageFingerprints(d, cfg)[StageChip],
		fmt.Sprintf("nl=%d|nb=%d|l0=%d|fill=series|interp=log", nl, nb, cfg.resolvedL0()))
}

// DriftedHybridTables returns a copy of a hybrid stage artifact with
// every ln D_j raised by dl: tables another fill rule made, such as the
// midpoint rule, whose entries sit up to ≈3e-5 from the closed form's.
func DriftedHybridTables(v any, dl float64) any {
	ht := v.(*hybridTables)
	out := &hybridTables{ls: ht.ls, bs: ht.bs, blocks: make([][]float64, len(ht.blocks))}
	for k, blk := range ht.blocks {
		for _, lv := range blk {
			out.blocks[k] = append(out.blocks[k], lv+dl)
		}
	}
	return out
}

// LinearHybridTables returns a copy of a hybrid stage artifact holding
// D_j instead of ln D_j: the tables a linear-interpolation build made.
func LinearHybridTables(v any) any {
	ht := v.(*hybridTables)
	lin := &hybridTables{ls: ht.ls, bs: ht.bs, blocks: make([][]float64, len(ht.blocks))}
	for k, blk := range ht.blocks {
		for _, lv := range blk {
			lin.blocks[k] = append(lin.blocks[k], math.Exp(lv))
		}
	}
	return lin
}

// ThermalSegment exposes the thermal stage's key input to the external
// tests.
func (c *Config) ThermalSegment() string { return string(c.segThermal(nil)) }

// PCASegment exposes the pca stage's key input for a 1×1 die to the
// external tests.
func (c *Config) PCASegment() string { return string(c.segPCA(nil, 1, 1)) }
