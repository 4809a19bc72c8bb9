// Package par is the repo-wide worker-pool substrate. Every
// parallelized hot path — Monte-Carlo sampling and queries,
// covariance assembly, hybrid-table fills, the
// cmd/ sweep fan-outs — goes through these helpers so the concurrency
// policy lives in one place:
//
//   - A requested worker count of 0 means "use GOMAXPROCS"; 1 runs the
//     work inline, without goroutines.
//   - Work distribution uses an atomic counter, not a channel, so the
//     producer never serializes on an unbuffered handoff.
//   - Floating-point reductions use one fixed chunk plan that depends
//     only on the problem size, never on the worker count, so results
//     are bit-identical however many workers run, one included.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"obdrel/internal/obs"
)

// Resolve maps a requested worker count onto [1, n]: 0 (or negative)
// selects GOMAXPROCS, and the result never exceeds the number of work
// items n.
func Resolve(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0, n), fanning out over Resolve
// (workers, n) goroutines. Items are claimed with an atomic counter.
// With workers == 1 (after resolution) fn runs inline in index order —
// the exact serial path.
func For(workers, n int, fn func(i int)) {
	w := Resolve(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForCtx is For with a cancellation checkpoint before every item:
// once ctx expires, unclaimed items are skipped and ctx.Err() is
// returned. Items already executing run to completion (fn is never
// interrupted mid-item), so callers keep their no-torn-writes
// invariants. With workers == 1 the loop stays inline and serial.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	w := Resolve(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				annotateSkipped(ctx, n-i)
				return err
			}
			fn(i)
		}
		return nil
	}
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		claimed := int(next.Load())
		if claimed > n {
			claimed = n
		}
		annotateSkipped(ctx, n-claimed)
		return err
	}
	return nil
}

// annotateSkipped records how many work items a cancelled ForCtx left
// unclaimed on the active span, making cancellation latency visible in
// traces. The FromContext nil check keeps the untraced path free of
// interface boxing.
func annotateSkipped(ctx context.Context, skipped int) {
	if sp := obs.FromContext(ctx); sp != nil {
		sp.SetAttr("par_skipped", skipped)
	}
}

// ForChunks splits [0, n) into ceil(n/chunk) fixed-size chunks and
// runs fn(lo, hi) for each. The chunk boundaries depend only on n and
// chunk — not on the worker count — so any per-chunk results a caller
// collects are deterministic. With workers == 1 chunks run inline in
// order.
func ForChunks(workers, n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	numChunks := (n + chunk - 1) / chunk
	For(workers, numChunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// sumChunk is the fixed reduction granularity of SumOrdered. It is a
// compile-time constant precisely so the summation tree never depends
// on the runtime worker count.
const sumChunk = 256

// SumOrdered computes Σ term(i) for i in [0, n): each fixed 256-item
// chunk is summed left-to-right into a partial, and the partials are
// combined by ordered pairwise summation. The tree shape depends only
// on n, so the result is bit-identical for every worker count.
func SumOrdered(workers, n int, term func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	numChunks := (n + sumChunk - 1) / sumChunk
	partials := make([]float64, numChunks)
	ForChunks(workers, n, sumChunk, func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += term(i)
		}
		partials[lo/sumChunk] = s
	})
	return PairwiseSum(partials)
}

// PairwiseSum adds xs by recursive halving in index order. The result
// depends only on the values and their order, and the error grows as
// O(log n) rather than the linear loop's O(n).
func PairwiseSum(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	case 2:
		return xs[0] + xs[1]
	}
	half := len(xs) / 2
	return PairwiseSum(xs[:half]) + PairwiseSum(xs[half:])
}
