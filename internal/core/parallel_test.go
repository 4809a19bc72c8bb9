package core

import (
	"math"
	"testing"
)

// newMCFixture builds one MonteCarlo engine over the shared test chip.
func newMCFixture(t testing.TB, samples, workers int) (*fixture, *MonteCarlo) {
	t.Helper()
	fx := newFixture(t)
	e, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: samples, Seed: 5, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return fx, e
}

// TestExponentMatchesDirect compares the geometric-progression
// evaluation (with its periodic math.Exp resynchronization) against
// the direct per-bin exponential sum. Without the resync the running
// product compounds one rounding error per bin and drifts well beyond
// this tolerance over 512 bins.
func TestExponentMatchesDirect(t *testing.T) {
	_, e := newMCFixture(t, 40, 1)
	n := e.chip.NumBlocks()
	for _, tQuery := range []float64{1e-3, 1, 1e3} {
		ls := make([]float64, n)
		for j := 0; j < n; j++ {
			ls[j] = math.Log(tQuery / e.chip.Params[j].Alpha)
		}
		for _, h := range e.hists[:8] {
			direct := 0.0
			for j := 0; j < n; j++ {
				base := h[j*e.WBins : (j+1)*e.WBins]
				for k, cnt := range base {
					if cnt == 0 {
						continue
					}
					w := e.wLo[j] + (float64(k)+0.5)*e.dW[j]
					direct += float64(cnt) * math.Exp(w*ls[j])
				}
			}
			got := e.exponent(h, ls, 0)
			if d := math.Abs(got - direct); d > 1e-11*math.Abs(direct) {
				t.Fatalf("t=%v: exponent %v vs direct %v (rel %.3g)",
					tQuery, got, direct, d/math.Abs(direct))
			}
		}
	}
}

// TestMCFailureProbWorkerEquivalence pins the determinism contract of
// the parallel query reduction: every worker count, one included, is
// bit-identical (one fixed chunked pairwise summation).
func TestMCFailureProbWorkerEquivalence(t *testing.T) {
	fx, e := newMCFixture(t, 700, 1)
	tRef, err := LifetimePPM(e, fx.chip, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tQuery := range []float64{tRef, tRef * 10, tRef * 1000} {
		e.Workers = 1
		ref, err := e.FailureProb(tQuery)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 5, 16} {
			e.Workers = w
			got, err := e.FailureProb(tQuery)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("t=%v workers=%d: %v != workers=1 value %v", tQuery, w, got, ref)
			}
		}
	}
}

// TestMCSampleFailureTimesWorkerEquivalence: the variates are drawn
// serially up front and each inversion is independent, so the sampled
// failure times are bit-identical across every worker count.
func TestMCSampleFailureTimesWorkerEquivalence(t *testing.T) {
	_, e := newMCFixture(t, 60, 1)
	e.Workers = 1
	ref, err := e.SampleFailureTimes(150, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 9} {
		e.Workers = w
		got, err := e.SampleFailureTimes(150, 99)
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("workers=%d draw %d: %v != %v", w, k, got[k], ref[k])
			}
		}
	}
}

// TestMCSamplingWorkerIndependence: per-sample deterministic seeds
// make the sampling phase itself independent of the worker count.
func TestMCSamplingWorkerIndependence(t *testing.T) {
	fx := newFixture(t)
	build := func(workers int) *MonteCarlo {
		e, err := NewMonteCarlo(fx.chip, fx.pca, MCOptions{Samples: 50, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build(1)
	for _, w := range []int{2, 6} {
		e := build(w)
		for s := range ref.hists {
			for i := range ref.hists[s] {
				if e.hists[s][i] != ref.hists[s][i] {
					t.Fatalf("workers=%d sample %d bin %d differs", w, s, i)
				}
			}
		}
	}
}
