//go:build !unix

package server

// processCPUUs has no portable fallback; the request record reports a zero
// CPU delta on platforms without getrusage.
func processCPUUs() int64 { return 0 }
