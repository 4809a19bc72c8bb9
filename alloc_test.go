package obdrel_test

import (
	"testing"

	"obdrel"
)

// TestWarmQueryZeroAlloc is the zero-allocation gate for the warm
// steady-state query path: once an analyzer's engine is built, the
// st_fast and hybrid lifetime/failure-probability lookups must not
// allocate. This is what lets a µs-latency monitoring loop poll at
// high rates without GC pressure.
func TestWarmQueryZeroAlloc(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []obdrel.Method{obdrel.MethodStFast, obdrel.MethodHybrid} {
		m := m
		// Warm the engine (first call builds it).
		if _, err := an.FailureProb(1e4, m); err != nil {
			t.Fatal(err)
		}
		t.Run(m.String()+"/FailureProb", func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := an.FailureProb(1e4, m); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm FailureProb(%v) allocates %v per op, want 0", m, allocs)
			}
		})
		t.Run(m.String()+"/LifetimePPM", func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := an.LifetimePPM(10, m); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm LifetimePPM(%v) allocates %v per op, want 0", m, allocs)
			}
		})
	}
}
