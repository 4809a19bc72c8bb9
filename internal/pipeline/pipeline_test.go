package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obdrel/internal/fault"
)

// TestInlineWhenNil pins the escape hatch: a nil cache runs the build
// inline under the caller's context — no caching, no coalescing.
func TestInlineWhenNil(t *testing.T) {
	calls := 0
	for i := 0; i < 3; i++ {
		v, res, err := Get(context.Background(), nil, "s", "k", func(ctx context.Context) (int, error) {
			calls++
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Fatalf("v=%d err=%v", v, err)
		}
		if res.Hit || res.Coalesced {
			t.Fatalf("nil cache reported %+v", res)
		}
	}
	if calls != 3 {
		t.Fatalf("nil cache memoized: %d calls, want 3", calls)
	}

	// The caller's context governs the inline build.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Get(ctx, nil, "s", "k", func(bctx context.Context) (int, error) {
		return 0, bctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestHitMissAndStats(t *testing.T) {
	c := NewCache(4)
	builds := 0
	get := func(key string) (int, Result) {
		v, res, err := Get(context.Background(), c, "stage", key, func(context.Context) (int, error) {
			builds++
			return builds, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, res
	}
	if v, res := get("a"); v != 1 || res.Hit {
		t.Fatalf("first get: v=%d res=%+v", v, res)
	}
	if v, res := get("a"); v != 1 || !res.Hit {
		t.Fatalf("second get: v=%d res=%+v", v, res)
	}
	get("b")
	st := c.Stat("stage")
	if st.Hits != 1 || st.Misses != 2 || st.Builds != 2 || st.Cancels != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Entries != 2 || c.Len("stage") != 2 {
		t.Fatalf("entries %d", st.Entries)
	}
	if st.BuildSeconds < 0 {
		t.Fatalf("negative build seconds %v", st.BuildSeconds)
	}
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Stage != "stage" {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestStagesAreIndependent: the same key in two stages is two
// artifacts; capacities apply per stage, and SetDefaultCapacity
// governs only stages created after it.
func TestStagesAreIndependent(t *testing.T) {
	c := NewCache(2)
	mk := func(stage string, v int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { return v, nil }
	}
	Get(context.Background(), c, "a", "k", mk("a", 1))
	Get(context.Background(), c, "b", "k", mk("b", 2))
	if v, _, _ := Get(context.Background(), c, "a", "k", mk("a", -1)); v != 1 {
		t.Fatalf("stage a key k = %d, want 1", v)
	}
	if v, _, _ := Get(context.Background(), c, "b", "k", mk("b", -1)); v != 2 {
		t.Fatalf("stage b key k = %d, want 2", v)
	}

	// The "small" stage holds one entry: the second key evicts the first.
	c.SetDefaultCapacity(1)
	Get(context.Background(), c, "small", "k1", mk("small", 1))
	Get(context.Background(), c, "small", "k2", mk("small", 2))
	if c.Len("small") != 1 {
		t.Fatalf("small stage len %d, want 1", c.Len("small"))
	}
	if _, res, _ := Get(context.Background(), c, "small", "k1", mk("small", 3)); res.Hit {
		t.Fatal("evicted key served as hit")
	}
	Get(context.Background(), c, "a", "k2", mk("a", 2))
	if c.Len("a") != 2 {
		t.Fatalf("stage a len %d, want 2: a later default capacity shrank it", c.Len("a"))
	}
}

// TestCoalescing: concurrent gets of one key run one build; everyone
// gets its value, and joiners report Coalesced.
func TestCoalescing(t *testing.T) {
	c := NewCache(4)
	var builds atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, res, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
				builds.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
			if res.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	// Wait for every goroutine to be either the builder or a joiner:
	// the flight exists once misses stop climbing. Simplest robust
	// barrier: poll the miss counter.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stat("s").Misses < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1", b)
	}
	if coalesced.Load() != n-1 {
		t.Fatalf("%d coalesced, want %d", coalesced.Load(), n-1)
	}
}

// TestErrorsNotCached: a failed build is not memoized, is counted as a
// failure, and its error reaches every waiter of that flight; the next
// get retries.
func TestErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	calls := 0
	_, _, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, _, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
		calls++
		return 5, nil
	})
	if err != nil || v != 5 || calls != 2 {
		t.Fatalf("v=%d calls=%d err=%v", v, calls, err)
	}
	if st := c.Stat("s"); st.Builds != 1 || st.Failures != 1 || st.Cancels != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPulledFailurePassesThrough: a build that fails on an input it
// resolved through the cache returns the input's StageError, which its
// own flight passes through unwrapped and does not count as its
// failure; the input's flight counts it.
func TestPulledFailurePassesThrough(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	_, _, err := Get(context.Background(), c, "outer", "ko", func(bctx context.Context) (int, error) {
		v, _, err := Get(bctx, c, "inner", "ki", func(context.Context) (int, error) { return 0, boom })
		return v, err
	})
	var se *fault.StageError
	if !errors.Is(err, boom) || !errors.As(err, &se) || se.Stage != "inner" || se.Fingerprint != "ki" {
		t.Fatalf("err = %v, want inner's StageError unwrapped", err)
	}
	if in, out := c.Stat("inner"), c.Stat("outer"); in.Failures != 1 || out.Failures != 0 || out.Cancels != 0 {
		t.Fatalf("failures: inner %d, outer %d (cancels %d); want 1, 0, 0", in.Failures, out.Failures, out.Cancels)
	}
}

// TestPermanentFailureNotRetried: a failing build runs once per Get —
// nothing re-runs it — and its error reaches the caller wrapped with
// stage + fingerprint provenance, still matching its cause.
func TestPermanentFailureNotRetried(t *testing.T) {
	c := NewCache(4)
	var calls atomic.Int32
	boom := errors.New("deterministic bug")
	_, _, err := Get(context.Background(), c, "s", "fp1", func(context.Context) (int, error) {
		calls.Add(1)
		return 0, boom
	})
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want cause %v", err, boom)
	}
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != "s" || se.Fingerprint != "fp1" {
		t.Fatalf("missing provenance: %v", err)
	}
	if fault.ClassOf(err) != fault.Permanent {
		t.Fatalf("class = %v", fault.ClassOf(err))
	}
}

// TestBuildPanicContained: a panicking build becomes a Permanent error
// instead of crashing the process, is never cached, and a later Get
// rebuilds.
func TestBuildPanicContained(t *testing.T) {
	c := NewCache(4)
	var calls atomic.Int32
	build := func(context.Context) (int, error) {
		if calls.Add(1) == 1 {
			panic("stage exploded")
		}
		return 5, nil
	}
	_, _, err := Get(context.Background(), c, "s", "k", build)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
	if fault.ClassOf(err) != fault.Permanent {
		t.Fatalf("class = %v", fault.ClassOf(err))
	}
	v, _, err := Get(context.Background(), c, "s", "k", build)
	if err != nil || v != 5 {
		t.Fatalf("rebuild: %v, %v", v, err)
	}
}

// TestInjectionPointPipelineBuild: an armed pipeline.build rule with a
// stage match fires inside the flight and surfaces with provenance.
func TestInjectionPointPipelineBuild(t *testing.T) {
	spec, err := fault.ParseSpec("pipeline.build(thermal):perm:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(spec.Injector(1))
	defer fault.Disarm()
	c := NewCache(4)
	_, _, err = Get(context.Background(), c, "thermal", "k", func(context.Context) (int, error) { return 1, nil })
	var ie *fault.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want injected", err)
	}
	// The match keeps other stages clean.
	v, _, err := Get(context.Background(), c, "pca", "k", func(context.Context) (int, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Fatalf("pca: %v, %v", v, err)
	}
}

// TestLastWaiterCancels is the heart of the cancellation contract:
// the build's context is cancelled exactly when the last interested
// waiter abandons the flight — not before.
func TestLastWaiterCancels(t *testing.T) {
	c := NewCache(4)
	started := make(chan struct{})
	buildCancelled := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	errs := make(chan error, 2)
	go func() {
		_, _, err := Get(ctx1, c, "s", "k", func(bctx context.Context) (int, error) {
			close(started)
			<-bctx.Done()
			close(buildCancelled)
			return 0, bctx.Err()
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := Get(ctx2, c, "s", "k", func(context.Context) (int, error) {
			t.Error("joiner started a second build while the first was in flight")
			return 0, nil
		})
		errs <- err
	}()
	// Let the second get join the flight (coalesced misses reach 2).
	deadline := time.Now().Add(5 * time.Second)
	for c.Stat("s").Misses < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// First waiter leaves: one waiter remains, the build must keep
	// running.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter err = %v", err)
	}
	select {
	case <-buildCancelled:
		t.Fatal("build cancelled while a waiter was still interested")
	case <-time.After(50 * time.Millisecond):
	}

	// Last waiter leaves: now the build context must be cancelled.
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second waiter err = %v", err)
	}
	select {
	case <-buildCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("build not cancelled after the last waiter left")
	}

	// The cancelled result is not cached and the cancel is counted.
	deadline = time.Now().Add(5 * time.Second)
	for c.Stat("s").Cancels == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := c.Stat("s"); st.Cancels != 1 || st.Failures != 0 || st.Entries != 0 || st.Builds != 0 {
		t.Fatalf("stats after cancellation %+v", st)
	}
}

// TestCancelledFlightNotDeliveredToLateJoiner: a waiter that joins a
// flight after its builders left (but before the cancelled build
// returns) must not receive the context error — it retries and gets a
// freshly built value.
func TestCancelledFlightNotDeliveredToLateJoiner(t *testing.T) {
	c := NewCache(4)
	started := make(chan struct{})
	sawCancel := make(chan struct{})
	hold := make(chan struct{})
	var builds atomic.Int64

	ctx1, cancel1 := context.WithCancel(context.Background())
	origErr := make(chan error, 1)
	go func() {
		_, _, err := Get(ctx1, c, "s", "k", func(bctx context.Context) (int, error) {
			builds.Add(1)
			close(started)
			<-bctx.Done()
			close(sawCancel)
			<-hold // keep the doomed flight joinable
			return 0, bctx.Err()
		})
		origErr <- err
	}()
	<-started
	cancel1()
	if err := <-origErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("originator err = %v", err)
	}
	<-sawCancel

	// Late joiner: finds the doomed flight in the map, waits on it,
	// then must transparently retry once the flight dies cancelled.
	joinErr := make(chan error, 1)
	go func() {
		v, res, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
			builds.Add(1)
			return 99, nil
		})
		if err == nil {
			if v != 99 {
				err = fmt.Errorf("v = %d, want 99", v)
			} else if !res.Coalesced {
				// It must have joined the doomed flight first.
				err = errors.New("late joiner never coalesced onto the doomed flight")
			}
		}
		joinErr <- err
	}()
	// Wait until the joiner has coalesced (miss #2 on the stage).
	deadline := time.Now().Add(5 * time.Second)
	for c.Stat("s").Misses < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	select {
	case err := <-joinErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late joiner never finished")
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (doomed + retry)", builds.Load())
	}
	if v, res, _ := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
		return -1, nil
	}); v != 99 || !res.Hit {
		t.Fatalf("retry result not cached: v=%d res=%+v", v, res)
	}
}

// TestWrongTypeGuard: an artifact cached under one type must not be
// silently handed to a Get expecting another.
func TestWrongTypeGuard(t *testing.T) {
	c := NewCache(4)
	if _, _, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Get(context.Background(), c, "s", "k", func(context.Context) (string, error) {
		return "", nil
	})
	if err == nil {
		t.Fatal("type mismatch not detected")
	}
}

// TestResetAndCapacity: a stage starts empty, with zero counters;
// SetDefaultCapacity governs stages created afterwards and leaves an
// existing stage's capacity alone.
func TestResetAndCapacity(t *testing.T) {
	c := NewCache(4)
	if st := c.Stat("s"); c.Len("s") != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("new stage not empty: len %d stats %+v", c.Len("s"), st)
	}
	Get(context.Background(), c, "s", "k", func(context.Context) (int, error) { return 1, nil })
	c.SetDefaultCapacity(1)
	Get(context.Background(), c, "t", "k1", func(context.Context) (int, error) { return 1, nil })
	Get(context.Background(), c, "t", "k2", func(context.Context) (int, error) { return 2, nil })
	if c.Len("t") != 1 {
		t.Fatalf("default capacity ignored: len %d", c.Len("t"))
	}
	Get(context.Background(), c, "s", "k2", func(context.Context) (int, error) { return 2, nil })
	if c.Len("s") != 2 {
		t.Fatalf("existing stage shrank to len %d, want 2", c.Len("s"))
	}
}

// blob is a test artifact that reports its size.
type blob int64

func (b blob) SizeBytes() int64 { return int64(b) }

// TestByteBudget: sized artifacts are charged against StageByteBudget
// alongside the entry count — LRU entries go first, the newest stays
// even when it alone is over budget, and unsized stages are unaffected.
func TestByteBudget(t *testing.T) {
	c := NewCache(64)
	put := func(stage, key string, size int64) {
		if _, _, err := Get(context.Background(), c, stage, key, func(context.Context) (blob, error) {
			return blob(size), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	quarter := int64(StageByteBudget / 4)
	for i := 0; i < 10; i++ {
		put("sized", fmt.Sprint(i), quarter)
	}
	st := c.Stat("sized")
	if st.Entries != 4 || st.Bytes != 4*quarter {
		t.Fatalf("after 10 quarter-budget puts: %d entries, %d bytes; want 4, %d", st.Entries, st.Bytes, 4*quarter)
	}
	for _, k := range []string{"6", "7", "8", "9"} {
		if _, ok := c.Peek("sized", k); !ok {
			t.Fatalf("recent key %s evicted", k)
		}
	}
	put("sized", "huge", 2*StageByteBudget)
	if st := c.Stat("sized"); st.Entries != 1 || st.Bytes != 2*StageByteBudget {
		t.Fatalf("oversized newest: %d entries, %d bytes; want it alone", st.Entries, st.Bytes)
	}
	// Install replaces in place: the charge is the new size, not the sum.
	c.mu.Lock()
	c.state("sized").put("huge", blob(1))
	c.mu.Unlock()
	if st := c.Stat("sized"); st.Bytes != 1 {
		t.Fatalf("replacement left %d bytes charged, want 1", st.Bytes)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := Get(context.Background(), c, "plain", fmt.Sprint(i), func(context.Context) (int, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stat("plain"); st.Entries != 10 || st.Bytes != 0 {
		t.Fatalf("unsized stage: %d entries, %d bytes; want 10, 0", st.Entries, st.Bytes)
	}
}
