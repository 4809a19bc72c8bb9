package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"obdrel/internal/fault"
)

var errFlaky = errors.New("flaky backend")

// TestTransientRetriedToSuccess: a build that fails transiently heals
// inside the flight — one Get, one successful build, retries counted.
func TestTransientRetriedToSuccess(t *testing.T) {
	c := NewCache(4)
	c.SetRetry(fault.Retry{Attempts: 3, Base: time.Millisecond})
	var calls atomic.Int32
	v, res, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
		if calls.Add(1) < 3 {
			return 0, fault.Transient.Wrap(errFlaky)
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	st := c.Stat("s")
	if st.Retries != 2 || st.Builds != 1 {
		t.Fatalf("retries=%d builds=%d", st.Retries, st.Builds)
	}
	if res.Hit || res.Coalesced {
		t.Fatalf("res = %+v", res)
	}
}

// TestPermanentFailureNotRetried: unclassified errors stay Permanent —
// exactly one attempt, wrapped with stage+fingerprint provenance.
func TestPermanentFailureNotRetried(t *testing.T) {
	c := NewCache(4)
	c.SetRetry(fault.Retry{Attempts: 5, Base: time.Millisecond})
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
	if c.Stat("s").Retries != 0 {
		t.Fatal("permanent failure was retried")
	}
}

// TestRetryExhaustion: a persistently transient failure burns all
// attempts and surfaces, still classified Transient through the
// provenance wrapper.
func TestRetryExhaustion(t *testing.T) {
	c := NewCache(4)
	c.SetRetry(fault.Retry{Attempts: 3, Base: time.Millisecond})
	var calls atomic.Int32
	_, _, err := Get(context.Background(), c, "s", "k", func(context.Context) (int, error) {
		calls.Add(1)
		return 0, fault.Transient.Wrap(errFlaky)
	})
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if fault.ClassOf(err) != fault.Transient {
		t.Fatalf("class = %v", fault.ClassOf(err))
	}
	if c.Stat("s").Retries != 2 {
		t.Fatalf("retries = %d", c.Stat("s").Retries)
	}
}

// TestCancellationDuringBackoffIsNotFailure is the PR5 extension of
// the PR3 last-waiter-cancels contract: a caller whose context dies
// mid-backoff surfaces a cancellation (not the transient error), the
// flight counts as cancelled, the breaker does not trip, and a late
// joiner retries transparently with a fresh flight.
func TestCancellationDuringBackoffIsNotFailure(t *testing.T) {
	c := NewCache(4)
	c.SetRetry(fault.Retry{Attempts: 4, Base: 30 * time.Second}) // backoff far longer than the test
	br := fault.NewBreaker(1, time.Hour)                         // hair trigger: any counted failure opens
	c.SetBreaker(br)
	firstAttempt := make(chan struct{})
	var calls atomic.Int32
	build := func(context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(firstAttempt)
			return 0, fault.Transient.Wrap(errFlaky)
		}
		return 7, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := Get(ctx, c, "s", "k", build)
		done <- err
	}()
	<-firstAttempt
	cancel() // the only waiter leaves while the flight is backing off
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("caller got %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return c.Stat("s").Cancels == 1 })
	if c.Stat("s").BreakerOpens != 0 {
		t.Fatal("cancellation during backoff tripped the breaker")
	}
	if got := c.Stat("s"); got.Builds != 0 {
		t.Fatalf("cancelled flight recorded a build: %+v", got)
	}
	// A late joiner is served by a fresh flight, transparently.
	v, _, err := Get(context.Background(), c, "s", "k", build)
	if err != nil || v != 7 {
		t.Fatalf("late joiner: %v, %v", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestBreakerShedsPoisonedKey: a deterministically failing fingerprint
// opens its circuit; further Gets fast-fail with the cached cause and
// never run the build, while other keys stay healthy.
func TestBreakerShedsPoisonedKey(t *testing.T) {
	c := NewCache(4)
	c.SetBreaker(fault.NewBreaker(2, time.Hour))
	var calls atomic.Int32
	poison := func(context.Context) (int, error) {
		calls.Add(1)
		return 0, errors.New("poisoned config")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := Get(context.Background(), c, "s", "bad", poison); err == nil {
			t.Fatal("poisoned build succeeded")
		}
	}
	_, _, err := Get(context.Background(), c, "s", "bad", poison)
	var oe *fault.OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want OpenError", err)
	}
	if fault.ClassOf(err) != fault.Overload {
		t.Fatalf("class = %v", fault.ClassOf(err))
	}
	if !strings.Contains(oe.Error(), "poisoned config") {
		t.Fatalf("negative cache lost the cause: %v", oe)
	}
	if calls.Load() != 2 {
		t.Fatalf("build ran %d times, want 2", calls.Load())
	}
	st := c.Stat("s")
	if st.BreakerOpens != 1 || st.BreakerFastFails != 1 {
		t.Fatalf("opens=%d fastFails=%d", st.BreakerOpens, st.BreakerFastFails)
	}
	// A healthy key on the same stage is unaffected.
	v, _, err := Get(context.Background(), c, "s", "good", func(context.Context) (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("healthy key: %v, %v", v, err)
	}
}

// TestBreakerHalfOpenRecovery: after the open TTL one probe build is
// admitted; its success closes the circuit and caches the artifact.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	c := NewCache(4)
	br := fault.NewBreaker(1, 30*time.Millisecond)
	c.SetBreaker(br)
	healed := atomic.Bool{}
	build := func(context.Context) (int, error) {
		if !healed.Load() {
			return 0, errors.New("still down")
		}
		return 9, nil
	}
	if _, _, err := Get(context.Background(), c, "s", "k", build); err == nil {
		t.Fatal("expected failure")
	}
	var oe *fault.OpenError
	if _, _, err := Get(context.Background(), c, "s", "k", build); !errors.As(err, &oe) {
		t.Fatalf("circuit did not open: %v", err)
	}
	healed.Store(true)
	time.Sleep(40 * time.Millisecond)
	v, _, err := Get(context.Background(), c, "s", "k", build) // the half-open probe
	if err != nil || v != 9 {
		t.Fatalf("probe: %v, %v", v, err)
	}
	if _, res, err := Get(context.Background(), c, "s", "k", build); err != nil || !res.Hit {
		t.Fatalf("recovered artifact not cached: %+v, %v", res, err)
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

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
