package obdrel

import "fmt"

// HybridTableKey exposes the table-file key to the external tests.
func (a *Analyzer) HybridTableKey() string { return a.hybridTableKey() }

// UntaggedHybridTableKey is the table-file key from before the key
// carried a fill tag: the name and embedded key of every table file a
// directory spilled by such a build holds.
func (a *Analyzer) UntaggedHybridTableKey() string {
	nl, nb := a.cfg.resolvedHybridGrid()
	return fp16("hybridtable", a.chipKey, fmt.Sprintf("nl=%d|nb=%d|l0=%d", nl, nb, a.cfg.resolvedL0()))
}

// ThermalSegment exposes the thermal stage's key input to the external
// tests.
func (c *Config) ThermalSegment() string { return c.segThermal() }
