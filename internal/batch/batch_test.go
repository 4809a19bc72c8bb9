package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obdrel/internal/fault"
)

// sliceSource yields the given works in order.
func sliceSource(works []Work) Source {
	i := 0
	return func() (Work, bool, error) {
		if i >= len(works) {
			return Work{}, false, nil
		}
		w := works[i]
		i++
		return w, true, nil
	}
}

// okWork builds a work item whose Eval returns its index and whose
// Prepare counts invocations into prepares.
func okWork(index int, key string, prepares *atomic.Int64) Work {
	return Work{
		Index: index,
		Key:   key,
		Prepare: func(context.Context) (any, error) {
			prepares.Add(1)
			return key, nil
		},
		Eval: func(_ context.Context, prepared any) (any, error) {
			if prepared != any(key) {
				return nil, fmt.Errorf("item %d got prepared %v, want %q", index, prepared, key)
			}
			return index, nil
		},
	}
}

func collect(t *testing.T, results *[]Result) func(Result) error {
	t.Helper()
	return func(r Result) error {
		*results = append(*results, r)
		return nil
	}
}

func TestGroupingPreparesOncePerKey(t *testing.T) {
	var prepares atomic.Int64
	var works []Work
	for i := 0; i < 20; i++ {
		works = append(works, okWork(i, fmt.Sprintf("key-%d", i%3), &prepares))
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := prepares.Load(); got != 3 {
		t.Fatalf("prepares = %d, want 3 (one per distinct key)", got)
	}
	if stats.Groups != 3 || stats.Items != 20 || stats.OK != 20 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Reused != 20-3 {
		t.Fatalf("Reused = %d, want %d", stats.Reused, 20-3)
	}
	for i, r := range results {
		if r.Index != i || r.Err != nil || r.Value != any(i) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestPrepareReusedAcrossWindows(t *testing.T) {
	var prepares atomic.Int64
	var works []Work
	for i := 0; i < 10; i++ {
		works = append(works, okWork(i, "shared", &prepares))
	}
	var results []Result
	flushes := 0
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results),
		Options{Window: 3, Workers: 1, Flush: func() { flushes++ }})
	if err != nil {
		t.Fatal(err)
	}
	if got := prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1 across windows", got)
	}
	if stats.Windows != 4 {
		t.Fatalf("Windows = %d, want 4 (3+3+3+1)", stats.Windows)
	}
	if flushes != 4 {
		t.Fatalf("flushes = %d, want one per window", flushes)
	}
	if stats.Reused != 9 {
		t.Fatalf("Reused = %d, want 9", stats.Reused)
	}
}

func TestPerItemErrorsDontAbortStream(t *testing.T) {
	var prepares atomic.Int64
	evalErr := errors.New("bad query")
	works := []Work{
		okWork(0, "k", &prepares),
		{Index: 1, Err: errors.New("unresolvable")},
		{
			Index: 2, Key: "k",
			Prepare: func(context.Context) (any, error) { prepares.Add(1); return "k", nil },
			Eval:    func(context.Context, any) (any, error) { return nil, evalErr },
		},
		okWork(3, "k", &prepares),
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 2 || stats.Failed != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("items 1 and 2 should fail: %+v", results)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("items 0 and 3 should succeed: %+v", results)
	}
	if !errors.Is(results[2].Err, evalErr) {
		t.Fatalf("item 2 error = %v, want %v", results[2].Err, evalErr)
	}
}

func TestPrepareErrorFailsGroupOnly(t *testing.T) {
	var prepares atomic.Int64
	boom := errors.New("substrate build failed")
	bad := func(index int) Work {
		return Work{
			Index: index, Key: "bad",
			Prepare: func(context.Context) (any, error) { return nil, boom },
			Eval:    func(context.Context, any) (any, error) { return "never", nil },
		}
	}
	works := []Work{okWork(0, "good", &prepares), bad(1), bad(2), okWork(3, "good", &prepares)}
	// Window 2 meets the failed key again in the second window.
	for _, window := range []int{0, 2} {
		var results []Result
		stats, err := Run(context.Background(), sliceSource(works), collect(t, &results),
			Options{Window: window, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Failed != 2 || stats.OK != 2 {
			t.Fatalf("window %d: stats = %+v", window, stats)
		}
		// Only the good group's second item shared a prepared substrate.
		if stats.Reused != 1 {
			t.Fatalf("window %d: Reused = %d, want 1 (a failed group reuses nothing)", window, stats.Reused)
		}
		for _, i := range []int{1, 2} {
			if !errors.Is(results[i].Err, boom) {
				t.Fatalf("window %d: item %d error = %v, want %v", window, i, results[i].Err, boom)
			}
		}
	}
}

func TestPreparePanicContained(t *testing.T) {
	works := []Work{{
		Index: 0, Key: "p",
		Prepare: func(context.Context) (any, error) { panic("prepare exploded") },
		Eval:    func(context.Context, any) (any, error) { return nil, nil },
	}}
	var results []Result
	_, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || fault.ClassOf(results[0].Err) != fault.Permanent {
		t.Fatalf("want permanent-class error from panicking prepare, got %v", results[0].Err)
	}
}

func TestEvalPanicContained(t *testing.T) {
	var prepares atomic.Int64
	works := []Work{
		okWork(0, "k", &prepares),
		{
			Index: 1, Key: "k",
			Prepare: func(context.Context) (any, error) { return "k", nil },
			Eval:    func(context.Context, any) (any, error) { panic("eval exploded") },
		},
		okWork(2, "k", &prepares),
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 2 || stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if results[1].Err == nil || fault.ClassOf(results[1].Err) != fault.Permanent {
		t.Fatalf("want permanent-class error from panicking eval, got %v", results[1].Err)
	}
}

func TestSourceErrorAfterEmittingPriorItems(t *testing.T) {
	var prepares atomic.Int64
	srcErr := errors.New("malformed item 2")
	n := 0
	src := func() (Work, bool, error) {
		if n == 2 {
			return Work{}, false, srcErr
		}
		w := okWork(n, "k", &prepares)
		n++
		return w, true, nil
	}
	var results []Result
	stats, err := Run(context.Background(), src, collect(t, &results), Options{Workers: 1})
	if !errors.Is(err, srcErr) {
		t.Fatalf("err = %v, want %v", err, srcErr)
	}
	if len(results) != 2 || stats.OK != 2 {
		t.Fatalf("items before the source error must still be emitted: %+v %+v", stats, results)
	}
}

func TestCancelFailsRemainingItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var works []Work
	for i := 0; i < 6; i++ {
		i := i
		works = append(works, Work{
			Index: i, Key: fmt.Sprintf("k%d", i),
			Prepare: func(context.Context) (any, error) {
				if i == 1 {
					cancel() // mid-run cancellation
				}
				return nil, nil
			},
			Eval: func(context.Context, any) (any, error) { return i, nil },
		})
	}
	var results []Result
	stats, err := Run(ctx, sliceSource(works), collect(t, &results), Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 6 {
		t.Fatalf("every admitted item must get exactly one result, got %d", len(results))
	}
	if stats.Failed == 0 {
		t.Fatal("cancellation should fail the not-yet-evaluated items")
	}
	for _, r := range results[2:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d error = %v, want context.Canceled", r.Index, r.Err)
		}
	}
}

func TestEmitErrorStopsRun(t *testing.T) {
	var prepares atomic.Int64
	var works []Work
	for i := 0; i < 10; i++ {
		works = append(works, okWork(i, "k", &prepares))
	}
	clientGone := errors.New("client gone")
	emitted := 0
	_, err := Run(context.Background(), sliceSource(works), func(Result) error {
		emitted++
		if emitted == 3 {
			return clientGone
		}
		return nil
	}, Options{Window: 4, Workers: 1})
	if !errors.Is(err, clientGone) {
		t.Fatalf("err = %v, want %v", err, clientGone)
	}
	if emitted != 3 {
		t.Fatalf("emitted = %d, want 3 (stop immediately)", emitted)
	}
}

// TestConcurrentEvalRace exercises the planner's worker fan-out under
// the race detector: many items per group, parallel workers, shared
// prepared state read by every eval.
func TestConcurrentEvalRace(t *testing.T) {
	var prepares atomic.Int64
	var evals atomic.Int64
	var works []Work
	for i := 0; i < 200; i++ {
		i := i
		key := fmt.Sprintf("key-%d", i%4)
		works = append(works, Work{
			Index: i, Key: key,
			Prepare: func(context.Context) (any, error) {
				prepares.Add(1)
				return key, nil
			},
			Eval: func(_ context.Context, prepared any) (any, error) {
				evals.Add(1)
				return prepared, nil
			},
		})
	}
	var mu sync.Mutex
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), func(r Result) error {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
		return nil
	}, Options{Window: 64, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if prepares.Load() != 4 || evals.Load() != 200 {
		t.Fatalf("prepares=%d evals=%d, want 4/200", prepares.Load(), evals.Load())
	}
	if stats.OK != 200 || stats.Reused != 196 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d — window emit order violated", i, r.Index)
		}
	}
}

// dupWork is okWork plus an EvalKey and an eval counter.
func dupWork(index int, key, evalKey string, prepares, evals *atomic.Int64) Work {
	w := okWork(index, key, prepares)
	w.EvalKey = evalKey
	inner := w.Eval
	w.Eval = func(ctx context.Context, prepared any) (any, error) {
		evals.Add(1)
		if _, err := inner(ctx, prepared); err != nil {
			return nil, err
		}
		return evalKey, nil
	}
	return w
}

func TestDuplicateEvalKeysShareOneEval(t *testing.T) {
	var prepares, evals atomic.Int64
	var works []Work
	for i := 0; i < 30; i++ {
		works = append(works, dupWork(i, "k", fmt.Sprintf("q-%d", i%5), &prepares, &evals))
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != 5 {
		t.Fatalf("evals = %d, want 5 (one per distinct query)", got)
	}
	if stats.SharedEvals != 25 {
		t.Fatalf("SharedEvals = %d, want 25", stats.SharedEvals)
	}
	for i, r := range results {
		if r.Err != nil || r.Value != any(fmt.Sprintf("q-%d", i%5)) {
			t.Fatalf("result %d = %+v — fan-out answered the wrong query", i, r)
		}
	}
}

func TestEvalMemoSpansWindows(t *testing.T) {
	var prepares, evals atomic.Int64
	var works []Work
	for i := 0; i < 20; i++ {
		works = append(works, dupWork(i, "k", "same-query", &prepares, &evals))
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results),
		Options{Window: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != 1 {
		t.Fatalf("evals = %d, want 1 across 5 windows", got)
	}
	if stats.SharedEvals != 19 {
		t.Fatalf("SharedEvals = %d, want 19", stats.SharedEvals)
	}
}

func TestSharedEvalErrorFansOut(t *testing.T) {
	boom := errors.New("query rejected")
	var evals atomic.Int64
	mk := func(index int) Work {
		return Work{
			Index: index, Key: "k", EvalKey: "bad-query",
			Prepare: func(context.Context) (any, error) { return nil, nil },
			Eval: func(context.Context, any) (any, error) {
				evals.Add(1)
				return nil, boom
			},
		}
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource([]Work{mk(0), mk(1), mk(2)}),
		collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if evals.Load() != 1 {
		t.Fatalf("evals = %d, want 1 (the error is as shareable as the answer)", evals.Load())
	}
	if stats.Failed != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range results {
		if !errors.Is(r.Err, boom) {
			t.Fatalf("result %d error = %v, want %v", i, r.Err, boom)
		}
	}
}

func TestEvalKeysScopedToGroup(t *testing.T) {
	// The same EvalKey under different substrate keys must NOT share:
	// "lifetime ppm=10" on design A is a different answer than on B.
	var prepares, evals atomic.Int64
	works := []Work{
		dupWork(0, "design-a", "q", &prepares, &evals),
		dupWork(1, "design-b", "q", &prepares, &evals),
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if evals.Load() != 2 || stats.SharedEvals != 0 {
		t.Fatalf("evals=%d shared=%d, want 2/0 — eval sharing leaked across groups", evals.Load(), stats.SharedEvals)
	}
}

func TestUnkeyedEvalsNeverShare(t *testing.T) {
	var prepares, evals atomic.Int64
	var works []Work
	for i := 0; i < 8; i++ {
		works = append(works, dupWork(i, "k", "", &prepares, &evals))
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if evals.Load() != 8 || stats.SharedEvals != 0 {
		t.Fatalf("evals=%d shared=%d, want 8/0 for unkeyed items", evals.Load(), stats.SharedEvals)
	}
}

func TestDedupConcurrentRace(t *testing.T) {
	var prepares, evals atomic.Int64
	var works []Work
	for i := 0; i < 240; i++ {
		works = append(works, dupWork(i, fmt.Sprintf("k%d", i%3), fmt.Sprintf("q%d", i%12), &prepares, &evals))
	}
	var mu sync.Mutex
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), func(r Result) error {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
		return nil
	}, Options{Window: 48, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 3 groups × 12 eval keys per group... but i%3 and i%12 align:
	// each (k, q) pair occurs for i ≡ fixed residue mod 12, so there
	// are 12 distinct (group, query) pairs.
	if evals.Load() != 12 {
		t.Fatalf("evals = %d, want 12 distinct (group, query) pairs", evals.Load())
	}
	if stats.OK != 240 || stats.SharedEvals != 240-12 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range results {
		if r.Index != i || r.Err != nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// barrier returns a function that blocks until n callers have reached
// it, or fails after a timeout: the callers did not run at once.
func barrier(n int32) func() error {
	var arrived atomic.Int32
	all := make(chan struct{})
	return func() error {
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("timed out waiting for a concurrent caller")
		}
	}
}

func TestGroupsPrepareConcurrently(t *testing.T) {
	meet := barrier(2)
	var works []Work
	for i, key := range []string{"a", "b"} {
		key := key
		works = append(works, Work{
			Index: i, Key: key,
			Prepare: func(context.Context) (any, error) { return key, meet() },
			Eval:    func(_ context.Context, prepared any) (any, error) { return prepared, nil },
		})
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 2 {
		t.Fatalf("stats = %+v, results = %+v: the two groups did not prepare at once", stats, results)
	}
}

func TestSingleGroupEvalsStillFanOut(t *testing.T) {
	meet := barrier(2)
	var prepares atomic.Int64
	var works []Work
	for i := 0; i < 2; i++ {
		w := okWork(i, "only", &prepares)
		w.Eval = func(context.Context, any) (any, error) { return nil, meet() }
		works = append(works, w)
	}
	var results []Result
	stats, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 2 || prepares.Load() != 1 {
		t.Fatalf("stats = %+v, prepares = %d, results = %+v: the group's evals did not overlap",
			stats, prepares.Load(), results)
	}
}

func TestWorkersOneRunsInItemOrder(t *testing.T) {
	var mu sync.Mutex
	var log []string
	record := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	var works []Work
	for i := 0; i < 6; i++ {
		i, key := i, fmt.Sprintf("g%d", i%3)
		works = append(works, Work{
			Index: i, Key: key,
			Prepare: func(context.Context) (any, error) {
				record("prepare " + key)
				return nil, nil
			},
			Eval: func(context.Context, any) (any, error) {
				record(fmt.Sprintf("eval %d", i))
				return i, nil
			},
		})
	}
	var results []Result
	if _, err := Run(context.Background(), sliceSource(works), collect(t, &results), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := []string{"prepare g0", "eval 0", "eval 3", "prepare g1", "eval 1", "eval 4", "prepare g2", "eval 2", "eval 5"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("call log = %q, want %q", log, want)
	}
}
