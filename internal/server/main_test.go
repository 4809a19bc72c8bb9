package server

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests and then fails the package if
// goroutines running the module's code outlive them: every test stops
// what it starts (servers and cluster loops). Such
// goroutines also allocate inside later tests' measurement windows,
// which is what the allocation ceilings read.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "FAIL: goroutines still running the module's code after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines waits up to wait for every goroutine but the
// caller's to stop running the module's code (work a test cancelled
// may take a moment to unwind), and returns the stacks of those that
// have not.
func leakedGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		// The first stack is the caller's own.
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			if runsModuleCode(g) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runsModuleCode reports whether one goroutine's stack has a frame in,
// or was created by, a package of this module.
func runsModuleCode(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		line = strings.TrimPrefix(line, "created by ")
		if strings.HasPrefix(line, "obdrel.") || strings.HasPrefix(line, "obdrel/") {
			return true
		}
	}
	return false
}
