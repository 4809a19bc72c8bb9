package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obdrel"
)

func testConfig(seed int64) *obdrel.Config {
	cfg := obdrel.DefaultConfig()
	cfg.GridNx, cfg.GridNy = 6, 6
	cfg.MCSamples = 50
	cfg.StMCSamples = 500
	cfg.Seed = seed
	return cfg
}

// TestSingleflightBuild is the ISSUE 2 acceptance test: 64 concurrent
// requests for the same uncached configuration must trigger exactly
// one engine build, with the other 63 coalesced onto it.
func TestSingleflightBuild(t *testing.T) {
	var builds atomic.Int64
	gate := make(chan struct{})
	m := NewMetrics()
	reg := NewRegistry(4, func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		builds.Add(1)
		<-gate // hold every racer at the miss until all have arrived
		return obdrel.NewAnalyzerCtx(ctx, d, cfg)
	}, m)

	const racers = 64
	var wg sync.WaitGroup
	var started sync.WaitGroup
	started.Add(racers)
	results := make([]*obdrel.Analyzer, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			an, _, err := regGet(reg, context.Background(), obdrel.C1(), testConfig(1))
			results[i], errs[i] = an, err
		}(i)
	}
	started.Wait()
	// All 64 goroutines are launched; give the laggards a moment to
	// reach the registry before releasing the build.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("64 concurrent identical requests ran %d builds, want 1", n)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("racer %d got a different analyzer instance", i)
		}
	}
	if got := m.Coalesced.Load(); got == 0 {
		t.Fatal("no coalesced requests recorded")
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d analyzers, want 1", reg.Len())
	}
}

func TestRegistryHitAndEviction(t *testing.T) {
	var builds atomic.Int64
	m := NewMetrics()
	reg := NewRegistry(2, func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		builds.Add(1)
		return obdrel.NewAnalyzerCtx(ctx, d, cfg)
	}, m)
	ctx := context.Background()
	d := obdrel.C1()

	if _, hit, err := regGet(reg, ctx, d, testConfig(1)); err != nil || hit {
		t.Fatalf("first get: hit=%t err=%v", hit, err)
	}
	if _, hit, err := regGet(reg, ctx, d, testConfig(1)); err != nil || !hit {
		t.Fatalf("second get should hit: hit=%t err=%v", hit, err)
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Fatalf("hit/miss counters %d/%d, want 1/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}

	// Two more distinct configs overflow the capacity-2 LRU; the
	// seed-1 entry (least recently used after the seed-2 insert) is
	// evicted and must rebuild on the next request.
	regGet(reg, ctx, d, testConfig(2))
	regGet(reg, ctx, d, testConfig(3))
	if reg.Len() != 2 {
		t.Fatalf("registry holds %d analyzers, want 2", reg.Len())
	}
	before := builds.Load()
	if _, hit, _ := regGet(reg, ctx, d, testConfig(1)); hit {
		t.Fatal("evicted entry reported as cached")
	}
	if builds.Load() != before+1 {
		t.Fatal("evicted entry did not rebuild")
	}
}

func TestRegistryBuildError(t *testing.T) {
	boom := errors.New("boom")
	m := NewMetrics()
	reg := NewRegistry(2, func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		return nil, boom
	}, m)
	if _, _, err := regGet(reg, context.Background(), obdrel.C1(), testConfig(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Failed builds are not cached.
	if reg.Len() != 0 {
		t.Fatalf("registry holds %d analyzers after failed build", reg.Len())
	}
}

// TestRegistryContextTimeout pins the abandoned-build contract: when
// the only waiter's deadline expires, the registry cancels the build's
// context — the characterization stops instead of finishing (and
// leaking) in the background — the cancelled partial result is never
// cached, and the next request starts a fresh build.
func TestRegistryContextTimeout(t *testing.T) {
	canceled := make(chan struct{})
	var builds atomic.Int64
	m := NewMetrics()
	reg := NewRegistry(2, func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		if builds.Add(1) == 1 {
			// A "slow" first build: block until the registry cancels
			// us, proving the 504 propagates into the build context.
			<-ctx.Done()
			close(canceled)
			return nil, ctx.Err()
		}
		return obdrel.NewAnalyzerCtx(ctx, d, cfg)
	}, m)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := regGet(reg, ctx, obdrel.C1(), testConfig(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned build was never cancelled")
	}

	// The cancellation is recorded and nothing was cached.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Stats().Cancels == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Stats().Cancels; got != 1 {
		t.Fatalf("cancelled-build counter %d, want 1", got)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry holds %d analyzers after a cancelled build", reg.Len())
	}

	// A fresh request is not poisoned by the cancelled flight: it
	// rebuilds from scratch and succeeds.
	if _, hit, err := regGet(reg, context.Background(), obdrel.C1(), testConfig(1)); err != nil || hit {
		t.Fatalf("rebuild after cancellation: hit=%t err=%v", hit, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (cancelled + fresh)", builds.Load())
	}
}

// TestRegistrySurvivorRetries pins the coalescing half of the
// cancellation contract: a waiter that joins a flight whose
// originator then abandons it must NOT receive the cancelled flight's
// context error — it retries with a fresh build and gets a real
// analyzer.
func TestRegistrySurvivorRetries(t *testing.T) {
	var builds atomic.Int64
	firstStarted := make(chan struct{})
	cancelSeen := make(chan struct{})
	hold := make(chan struct{})
	m := NewMetrics()
	reg := NewRegistry(2, func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		if builds.Add(1) == 1 {
			close(firstStarted)
			<-ctx.Done() // the originator's departure cancels us...
			close(cancelSeen)
			<-hold // ...but the flight stays joinable until released
			return nil, ctx.Err()
		}
		return obdrel.NewAnalyzerCtx(ctx, d, cfg)
	}, m)

	impatient, cancelImpatient := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := regGet(reg, impatient, obdrel.C1(), testConfig(1))
		done <- err
	}()
	<-firstStarted
	cancelImpatient()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter err = %v, want context.Canceled", err)
	}
	<-cancelSeen // the last waiter's exit cancelled the build context

	// The survivor arrives while the cancelled flight is still
	// in-flight, joins it, sees it die of cancellation, and must
	// transparently retry with a fresh build.
	survivor := make(chan error, 1)
	go func() {
		an, _, err := regGet(reg, context.Background(), obdrel.C1(), testConfig(1))
		if err == nil && an == nil {
			err = errors.New("nil analyzer without error")
		}
		survivor <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the survivor join the doomed flight
	close(hold)

	select {
	case err := <-survivor:
		if err != nil {
			t.Fatalf("surviving waiter received %v, want a fresh successful build", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("surviving waiter never completed")
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (cancelled + survivor's retry)", builds.Load())
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d analyzers, want 1", reg.Len())
	}
}

// regGet looks (d, cfg) up under its canonical key, as the server does.
func regGet(reg *Registry, ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, bool, error) {
	return reg.Get(ctx, obdrel.CacheKey(d, cfg), d, cfg)
}
