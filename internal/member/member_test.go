package member

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for deterministic lease
// transitions.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func stateOf(d *Directory, node string) (State, bool) {
	for _, m := range d.Members() {
		if m.Node == node {
			return m.State, true
		}
	}
	return 0, false
}

// TestLeaseLifecycle walks the full satellite path: join → active →
// missed heartbeats → suspect → lease expiry → dead → rejoin with a
// higher incarnation bumps the epoch and resurrects the member.
func TestLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	lease := 10 * time.Second
	d := New("http://a", lease, clk.Now)

	// Join: direct contact from an unknown node.
	d.Contact("http://b")
	if st, ok := stateOf(d, "http://b"); !ok || st != Active {
		t.Fatalf("after join: state=%v ok=%v, want active", st, ok)
	}
	if got := d.Alive(); len(got) != 2 {
		t.Fatalf("alive after join = %v, want 2 nodes", got)
	}
	epochJoined := d.Epoch()

	// Silent for lease/2: suspect, but still in the ring.
	clk.Advance(lease/2 + time.Second)
	if !d.Sweep() {
		t.Fatal("sweep after lease/2 should report a change")
	}
	if st, _ := stateOf(d, "http://b"); st != Suspect {
		t.Fatalf("state after lease/2 = %v, want suspect", st)
	}
	if got := d.Alive(); len(got) != 2 {
		t.Fatalf("suspect node must stay in the ring, alive = %v", got)
	}

	// Direct contact clears suspicion without an incarnation bump.
	d.Contact("http://b")
	if st, _ := stateOf(d, "http://b"); st != Active {
		t.Fatalf("state after contact = %v, want active", st)
	}

	// Silent for a full lease: dead, out of the ring.
	clk.Advance(lease + time.Second)
	d.Sweep()
	if st, _ := stateOf(d, "http://b"); st != Dead {
		t.Fatalf("state after lease expiry = %v, want dead", st)
	}
	if got := d.Alive(); len(got) != 1 || got[0] != "http://a" {
		t.Fatalf("alive after expiry = %v, want just self", got)
	}
	epochDead := d.Epoch()
	if epochDead <= epochJoined {
		t.Fatalf("death must bump epoch: joined=%d dead=%d", epochJoined, epochDead)
	}

	// Plain contact cannot resurrect a tombstone...
	d.Contact("http://b")
	if st, _ := stateOf(d, "http://b"); st != Dead {
		t.Fatalf("contact resurrected a tombstone: %v", st)
	}

	// ...but a rejoin with a higher incarnation does, bumping epoch.
	d.Merge(List{From: "http://b", Members: []Info{
		{Node: "http://b", Incarnation: clk.Now().UnixNano(), State: Active},
	}})
	if st, _ := stateOf(d, "http://b"); st != Active {
		t.Fatalf("state after rejoin = %v, want active", st)
	}
	if d.Epoch() <= epochDead {
		t.Fatalf("rejoin must bump epoch: dead=%d rejoined=%d", epochDead, d.Epoch())
	}
}

// TestMergeLWW exercises the conflict rules: higher incarnation wins,
// equal incarnations take the worse state, lower incarnations are
// ignored, and unknown dead records arrive as tombstones.
func TestMergeLWW(t *testing.T) {
	clk := newFakeClock()
	d := New("http://a", 10*time.Second, clk.Now)

	d.Merge(List{From: "http://b", Members: []Info{
		{Node: "http://b", Incarnation: 5, State: Active},
	}})

	// Equal incarnation, worse state: suspect displaces active.
	d.Merge(List{From: "http://c", Members: []Info{
		{Node: "http://b", Incarnation: 5, State: Suspect},
	}})
	if st, _ := stateOf(d, "http://b"); st != Suspect {
		t.Fatalf("equal-incarnation worse state should win, got %v", st)
	}

	// Equal incarnation, better state: ignored.
	d.Merge(List{From: "http://c", Members: []Info{
		{Node: "http://b", Incarnation: 5, State: Active},
	}})
	if st, _ := stateOf(d, "http://b"); st != Suspect {
		t.Fatalf("equal-incarnation better state must not win, got %v", st)
	}

	// Higher incarnation: wins outright, even back to active.
	d.Merge(List{From: "http://c", Members: []Info{
		{Node: "http://b", Incarnation: 6, State: Active},
	}})
	if st, _ := stateOf(d, "http://b"); st != Active {
		t.Fatalf("higher incarnation must win, got %v", st)
	}

	// Lower incarnation: ignored.
	d.Merge(List{From: "http://c", Members: []Info{
		{Node: "http://b", Incarnation: 2, State: Dead},
	}})
	if st, _ := stateOf(d, "http://b"); st != Active {
		t.Fatalf("lower incarnation must be ignored, got %v", st)
	}

	// Unknown dead node arrives as a tombstone, not an alive member.
	d.Merge(List{From: "http://c", Members: []Info{
		{Node: "http://x", Incarnation: 9, State: Dead},
	}})
	if st, ok := stateOf(d, "http://x"); !ok || st != Dead {
		t.Fatalf("unknown dead record should tombstone, got %v ok=%v", st, ok)
	}
	for _, n := range d.Alive() {
		if n == "http://x" {
			t.Fatal("tombstone leaked into alive set")
		}
	}
}

// TestRefutation: gossip reporting the local node suspect or dead at
// our incarnation (or newer) must bump our incarnation so the
// obituary is out-written.
func TestRefutation(t *testing.T) {
	clk := newFakeClock()
	d := New("http://a", 10*time.Second, clk.Now)
	inc := d.Incarnation()

	d.Merge(List{From: "http://b", Members: []Info{
		{Node: "http://a", Incarnation: inc, State: Dead},
	}})
	if got := d.Incarnation(); got <= inc {
		t.Fatalf("refutation must bump incarnation: %d -> %d", inc, got)
	}

	// Stale rumors about an older incarnation are ignored.
	cur := d.Incarnation()
	d.Merge(List{From: "http://b", Members: []Info{
		{Node: "http://a", Incarnation: cur - 10, State: Dead},
	}})
	if got := d.Incarnation(); got != cur {
		t.Fatalf("stale rumor must not bump incarnation: %d -> %d", cur, got)
	}

	// After a graceful Leave we stop refuting: the obituary is ours.
	d.Leave()
	cur = d.Incarnation()
	d.Merge(List{From: "http://b", Members: []Info{
		{Node: "http://a", Incarnation: cur, State: Dead},
	}})
	if got := d.Incarnation(); got != cur {
		t.Fatalf("left node must not refute its own obituary")
	}
	if snap := d.Snapshot(); snap.Members[0].State != Dead {
		t.Fatalf("left node must advertise itself dead, got %v", snap.Members[0].State)
	}
}

// TestPushPullConverges: a pair of snapshot exchanges makes two
// directories agree on the member list.
func TestPushPullConverges(t *testing.T) {
	clk := newFakeClock()
	a := New("http://a", 10*time.Second, clk.Now)
	b := New("http://b", 10*time.Second, clk.Now)
	a.Contact("http://c") // a knows something b doesn't

	// b -> a (push), a -> b (pull response).
	a.Merge(b.Snapshot())
	a.Contact("http://b")
	b.Merge(a.Snapshot())
	b.Contact("http://a")

	ga, gb := a.Alive(), b.Alive()
	if len(ga) != 3 || len(gb) != 3 {
		t.Fatalf("not converged: a=%v b=%v", ga, gb)
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("diverged member lists: a=%v b=%v", ga, gb)
		}
	}
}

// TestOnChangeFires: epoch-bumping mutations deliver a Change with a
// consistent alive set; non-mutations stay silent.
func TestOnChangeFires(t *testing.T) {
	clk := newFakeClock()
	d := New("http://a", 10*time.Second, clk.Now)
	var mu sync.Mutex
	var changes []Change
	d.SetOnChange(func(c Change) {
		mu.Lock()
		changes = append(changes, c)
		mu.Unlock()
	})

	d.Contact("http://b")
	d.Contact("http://b") // already active: no change
	d.Sweep()             // nothing stale: no change

	mu.Lock()
	defer mu.Unlock()
	if len(changes) != 1 {
		t.Fatalf("want exactly 1 change, got %d", len(changes))
	}
	if len(changes[0].Alive) != 2 {
		t.Fatalf("change alive = %v, want 2 nodes", changes[0].Alive)
	}
}

// TestConcurrentChurn hammers joins, leaves, merges, and sweeps from
// many goroutines; run under -race this is the satellite's
// concurrency gate. Assertions are minimal — the point is the race
// detector plus "directory never panics or deadlocks".
func TestConcurrentChurn(t *testing.T) {
	clk := newFakeClock()
	d := New("http://a", time.Second, clk.Now)
	d.SetOnChange(func(Change) {})
	nodes := []string{"http://b", "http://c", "http://d", "http://e"}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				n := nodes[(i+j)%len(nodes)]
				switch j % 5 {
				case 0:
					d.Contact(n)
				case 1:
					d.Merge(List{From: n, Members: []Info{
						{Node: n, Incarnation: int64(j), State: State(j % 3)},
					}})
				case 2:
					clk.Advance(100 * time.Millisecond)
					d.Sweep()
				case 3:
					d.Snapshot()
					d.Alive()
					d.Counts()
				case 4:
					d.Epoch()
					d.Members()
				}
			}
		}(i)
	}
	wg.Wait()

	// Every surviving record must still be one of the three states.
	for _, m := range d.Members() {
		if m.State < Active || m.State > Dead {
			t.Fatalf("invalid state %v for %s", m.State, m.Node)
		}
	}
}

// Epoch returns the current view version.
func (d *Directory) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Incarnation returns our own current incarnation.
func (d *Directory) Incarnation() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inc
}
