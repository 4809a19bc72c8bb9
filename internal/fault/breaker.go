package fault

import (
	"fmt"
	"sync"
	"time"
)

// Breaker is a keyed circuit breaker with half-open probing. Keys are
// fingerprints (stage+key, design identity): a poisoned configuration
// that fails deterministically trips only its own key, so one bad
// design cannot stampede rebuilds or starve healthy traffic.
//
// State machine, per key:
//
//	closed ──(threshold consecutive failures)──► open
//	open ──(openFor elapses)──► half-open: ONE probe build admitted
//	half-open ──probe succeeds──► closed (entry dropped)
//	half-open ──probe fails──► open again for openFor
//
// While open, Allow fast-fails with an *OpenError carrying the last
// observed failure — a negative-result cache with TTL openFor: callers
// get the cause immediately instead of re-running a doomed build.
type Breaker struct {
	threshold int
	openFor   time.Duration
	// now is the clock, swappable by tests.
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*brEntry
}

type brEntry struct {
	consec    int
	openUntil time.Time
	probing   bool
	lastErr   error
}

// maxBreakerEntries bounds the tracked-key map; only failing keys are
// tracked (success drops the entry), so hitting the bound means
// thousands of distinct fingerprints are actively failing.
const maxBreakerEntries = 4096

// NewBreaker returns a breaker opening after threshold consecutive
// failures (min 1) for openFor (default 5s) per key.
func NewBreaker(threshold int, openFor time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if openFor <= 0 {
		openFor = 5 * time.Second
	}
	return &Breaker{
		threshold: threshold,
		openFor:   openFor,
		now:       time.Now,
		entries:   map[string]*brEntry{},
	}
}

// OpenError is the fast-fail result for an open key. It classifies as
// Overload and deliberately does not Unwrap its cause: the cause
// already counted once when it tripped the breaker, and callers
// matching on sentinel errors (context deadlines, API errors) must not
// mistake a shed request for the original failure.
type OpenError struct {
	Key   string
	Until time.Time
	Last  error
}

func (e *OpenError) Error() string {
	if e.Last != nil {
		return fmt.Sprintf("fault: circuit open for %s (last failure: %v)", e.Key, e.Last)
	}
	return fmt.Sprintf("fault: circuit open for %s", e.Key)
}
func (e *OpenError) FaultClass() Class { return Overload }

// Allow reports whether a build for key may proceed. A non-nil return
// is the fast-fail: the key is open (or another half-open probe is
// already in flight). A nil return from an open-but-expired key admits
// the caller as the single half-open probe; it MUST report back via
// Success or Failure.
func (b *Breaker) Allow(key string) *OpenError {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok || e.openUntil.IsZero() {
		return nil
	}
	now := b.now()
	if now.Before(e.openUntil) {
		return &OpenError{Key: key, Until: e.openUntil, Last: e.lastErr}
	}
	if e.probing {
		return &OpenError{Key: key, Until: now.Add(b.openFor), Last: e.lastErr}
	}
	e.probing = true
	return nil
}

// Success reports a completed build; the key's failure history is
// forgotten.
func (b *Breaker) Success(key string) {
	b.mu.Lock()
	delete(b.entries, key)
	b.mu.Unlock()
}

// Release reports an abandoned (cancelled) build: a held half-open
// probe slot is freed without judging the key's health.
func (b *Breaker) Release(key string) {
	b.mu.Lock()
	if e, ok := b.entries[key]; ok {
		e.probing = false
	}
	b.mu.Unlock()
}

// Failure reports a failed build (never call it for cancellations —
// a caller giving up says nothing about the key's health). It returns
// true when this failure opened (or re-opened) the circuit.
func (b *Breaker) Failure(key string, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		if len(b.entries) >= maxBreakerEntries {
			b.evictClosedLocked()
		}
		e = &brEntry{}
		b.entries[key] = e
	}
	e.consec++
	e.lastErr = err
	wasProbe := e.probing
	e.probing = false
	if e.consec < b.threshold && !wasProbe {
		return false
	}
	// Threshold reached, or a half-open probe failed: (re)open.
	wasOpen := !e.openUntil.IsZero() && b.now().Before(e.openUntil)
	e.openUntil = b.now().Add(b.openFor)
	return !wasOpen
}

// evictClosedLocked drops one closed (not currently open) entry to
// bound the map; if every entry is open, it drops an arbitrary one.
func (b *Breaker) evictClosedLocked() {
	var anyKey string
	for k, e := range b.entries {
		if e.openUntil.IsZero() {
			delete(b.entries, k)
			return
		}
		anyKey = k
	}
	delete(b.entries, anyKey)
}
