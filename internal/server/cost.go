package server

import (
	rtmetrics "runtime/metrics"
)

// costSnapshot is a point-in-time read of the process-level cost
// counters a request record diffs around its request: cumulative heap
// allocations (bytes and objects) and process CPU time.
type costSnapshot struct {
	allocBytes   uint64
	allocObjects uint64
	cpuUs        int64
}

// readCost samples the counters. Only called when a record will be
// written: with no AccessLog it is never reached.
func readCost() costSnapshot {
	var s [2]rtmetrics.Sample
	s[0].Name = "/gc/heap/allocs:bytes"
	s[1].Name = "/gc/heap/allocs:objects"
	rtmetrics.Read(s[:])
	cs := costSnapshot{cpuUs: processCPUUs()}
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		cs.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindUint64 {
		cs.allocObjects = s[1].Value.Uint64()
	}
	return cs
}
