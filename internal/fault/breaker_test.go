package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the breaker without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, openFor time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, openFor)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if b.Failure("k", boom) {
			t.Fatalf("opened after %d failures", i+1)
		}
		if oe := b.Allow("k"); oe != nil {
			t.Fatalf("closed key rejected: %v", oe)
		}
	}
	if !b.Failure("k", boom) {
		t.Fatal("third failure did not open")
	}
	oe := b.Allow("k")
	if oe == nil {
		t.Fatal("open key admitted a build")
	}
	if ClassOf(oe) != Overload {
		t.Fatalf("OpenError class = %v", ClassOf(oe))
	}
	// The negative-result cache carries the cause without unwrapping it.
	if !errors.Is(oe.Last, boom) {
		t.Fatal("OpenError lost the last failure")
	}
	if errors.Is(oe, boom) {
		t.Fatal("OpenError must not unwrap to the cause")
	}
	// Other keys are untouched.
	if oe := b.Allow("healthy"); oe != nil {
		t.Fatalf("healthy key rejected: %v", oe)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure("k", errors.New("boom"))
	if b.Allow("k") == nil {
		t.Fatal("open key admitted")
	}
	clk.advance(1100 * time.Millisecond)
	// First caller after the TTL becomes the probe…
	if oe := b.Allow("k"); oe != nil {
		t.Fatalf("half-open denied the probe: %v", oe)
	}
	// …and everyone else keeps fast-failing while it runs.
	if b.Allow("k") == nil {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe success closes the circuit completely.
	b.Success("k")
	if oe := b.Allow("k"); oe != nil {
		t.Fatalf("recovered key rejected: %v", oe)
	}
	if openKeys(b) != 0 {
		t.Fatalf("OpenKeys = %d after recovery", openKeys(b))
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure("k", errors.New("boom"))
	clk.advance(1100 * time.Millisecond)
	if b.Allow("k") != nil {
		t.Fatal("probe denied")
	}
	b.Failure("k", errors.New("still broken"))
	if b.Allow("k") == nil {
		t.Fatal("failed probe did not reopen")
	}
	if openKeys(b) != 1 {
		t.Fatalf("OpenKeys = %d", openKeys(b))
	}
	// It recovers on the next cycle when the probe succeeds.
	clk.advance(1100 * time.Millisecond)
	if b.Allow("k") != nil {
		t.Fatal("second probe denied")
	}
	b.Success("k")
	if b.Allow("k") != nil {
		t.Fatal("key did not close after eventual success")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	boom := errors.New("boom")
	b.Failure("k", boom)
	b.Failure("k", boom)
	b.Success("k")
	if b.Failure("k", boom) || b.Failure("k", boom) {
		t.Fatal("interleaved success did not reset the streak")
	}
}

func TestBreakerEntryBound(t *testing.T) {
	b, _ := newTestBreaker(100, time.Second)
	for i := 0; i < maxBreakerEntries+10; i++ {
		b.Failure(string(rune('a'+i%26))+time.Duration(i).String(), errors.New("x"))
	}
	b.mu.Lock()
	n := len(b.entries)
	b.mu.Unlock()
	if n > maxBreakerEntries {
		t.Fatalf("entries grew to %d (bound %d)", n, maxBreakerEntries)
	}
}

// openKeys returns how many of b's keys are currently open.
func openKeys(b *Breaker) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	n := 0
	for _, e := range b.entries {
		if !e.openUntil.IsZero() && now.Before(e.openUntil) {
			n++
		}
	}
	return n
}
