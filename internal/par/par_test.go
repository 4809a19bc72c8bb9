package par

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(1, 100); got != 1 {
		t.Fatalf("Resolve(1, 100) = %d", got)
	}
	if got := Resolve(8, 3); got != 3 {
		t.Fatalf("Resolve(8, 3) = %d, want clamp to n", got)
	}
	if got := Resolve(0, 100); got < 1 {
		t.Fatalf("Resolve(0, 100) = %d", got)
	}
	if got := Resolve(-5, 100); got < 1 {
		t.Fatalf("Resolve(-5, 100) = %d", got)
	}
	if got := Resolve(4, 0); got != 1 {
		t.Fatalf("Resolve(4, 0) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		const n = 1000
		var hits [n]atomic.Int32
		For(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, c)
			}
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1000} {
		var covered [1001]atomic.Int32
		ForChunks(4, n, 256, func(lo, hi int) {
			if lo%256 != 0 || hi <= lo || hi > n {
				t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		for i := 0; i < n; i++ {
			if covered[i].Load() != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, covered[i].Load())
			}
		}
	}
}

// TestSumOrderedDeterministic checks the documented contract: every
// worker count, one included, produces bit-identical sums.
func TestSumOrderedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 255, 256, 257, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Exp(10*rng.Float64())
		}
		term := func(i int) float64 { return xs[i] }
		ref := SumOrdered(1, n, term)
		for _, w := range []int{2, 3, 4, 7, 32} {
			if got := SumOrdered(w, n, term); got != ref {
				t.Fatalf("n=%d workers=%d: %v != workers=1 result %v", n, w, got, ref)
			}
		}
	}
}

func TestPairwiseSumMatchesExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := PairwiseSum(xs); got != 28 {
		t.Fatalf("PairwiseSum = %v", got)
	}
	if got := PairwiseSum(nil); got != 0 {
		t.Fatalf("PairwiseSum(nil) = %v", got)
	}
}
