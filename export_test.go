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
func (c *Config) ThermalSegment() string { return c.segThermal() }
