//go:build unix

package server

import "syscall"

// processCPUUs returns cumulative process CPU time (user + system) in
// microseconds via getrusage. Process-wide by nature: the record
// documents the delta as a process-level figure, not a per-goroutine
// attribution.
func processCPUUs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Utime.Sec)*1e6 + int64(ru.Utime.Usec) +
		int64(ru.Stime.Sec)*1e6 + int64(ru.Stime.Usec)
}
