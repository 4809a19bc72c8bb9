// Package member implements the lease-based cluster membership
// directory that every obdreld cluster node runs, whether its ring is
// pinned (-peers) or discovered (-join).
//
// Each node keeps a Directory: a map from node URL to the freshest
// known (incarnation, state) pair plus a local last-contact stamp.
// Nodes exchange full directory snapshots over POST /v1/cluster/join
// (push-pull gossip: the request body is the sender's view, the
// response is the receiver's merged view), so any pair of exchanges
// converges both sides.
//
// Conflict resolution is last-writer-wins per node, ordered by
// incarnation: a higher incarnation always replaces a lower one, and
// at equal incarnations the worse state wins (dead > suspect >
// active). A node is the only authority that may bump its own
// incarnation — it does so at startup (wall-clock nanoseconds, so a
// restart is always newer) and to refute gossip that reports it
// suspect or dead.
//
// Liveness is local and lease-based: lastSeen is only refreshed by
// direct contact (an inbound exchange from the node, or a successful
// outbound exchange to it) or by learning a strictly newer
// incarnation. A member with no contact for lease/2 turns suspect;
// for a full lease, dead. Suspect members stay in the alive set
// (serving is never gated on gossip); dead members leave it but remain
// as tombstones so their obituary out-gossips stale "active" entries.
// The caller builds its ring from the alive set, and may pin members
// that stay in the ring whatever their state.
//
// Every mutation that changes the member list bumps the local epoch.
// Epochs are per-node view versions, not a fleet consensus: merge
// takes max(local, remote) so they converge upward, but two nodes may
// legitimately disagree mid-gossip and status surfaces must degrade
// to per-node reporting rather than error.
package member

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a member's liveness state as seen by one directory.
type State int

const (
	Active  State = iota // lease current
	Suspect              // missed heartbeats for lease/2; still in the ring
	Dead                 // lease expired or graceful leave; out of the alive set
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalJSON encodes the state as its lowercase name so the wire
// format survives reordering of the enum.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the lowercase names; unknown names decode as
// Dead so a newer peer's exotic state can never resurrect a node.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "active":
		*s = Active
	case "suspect":
		*s = Suspect
	default:
		*s = Dead
	}
	return nil
}

// worse reports whether a should displace b at equal incarnations.
func worse(a, b State) bool { return a > b }

// Info is one member's gossiped record.
type Info struct {
	Node        string `json:"node"`
	Incarnation int64  `json:"incarnation"`
	State       State  `json:"state"`
}

// List is a full directory snapshot: the push-pull gossip payload.
type List struct {
	From    string `json:"from"`  // sender's own node URL
	Epoch   uint64 `json:"epoch"` // sender's view version
	Members []Info `json:"members"`
}

// Change describes a directory mutation delivered to the OnChange
// callback. Alive is sorted and always includes the local node.
type Change struct {
	Epoch uint64
	Alive []string
}

type entry struct {
	info     Info
	lastSeen time.Time // local clock; zero for tombstones
}

// Directory is one node's membership view. All methods are safe for
// concurrent use.
type Directory struct {
	self  string
	lease time.Duration
	now   func() time.Time

	mu       sync.Mutex
	inc      int64 // our own incarnation
	left     bool  // graceful leave: advertise self as dead
	epoch    uint64
	members  map[string]*entry // everyone but self
	onChange func(Change)
}

// New builds a directory for self with the given lease. clock may be
// nil (wall clock); tests inject a fake. The initial incarnation is
// the clock's UnixNano so a restarted node always out-writes its
// previous life.
func New(self string, lease time.Duration, clock func() time.Time) *Directory {
	if clock == nil {
		clock = time.Now
	}
	if lease <= 0 {
		lease = 10 * time.Second
	}
	return &Directory{
		self:    self,
		lease:   lease,
		now:     clock,
		inc:     clock().UnixNano(),
		epoch:   1,
		members: make(map[string]*entry),
	}
}

// SetOnChange registers a callback invoked (outside the lock) after
// any mutation that bumped the epoch. At most one callback runs at a
// time per mutation; registration is not concurrency-safe with
// mutations and should happen before the directory is shared.
func (d *Directory) SetOnChange(fn func(Change)) { d.onChange = fn }

// Lease returns the configured lease duration.
func (d *Directory) Lease() time.Duration { return d.lease }

// Alive returns the sorted set of non-dead members including self.
// Suspect members are included: suspicion delays nothing, only a
// confirmed lease expiry shrinks the alive set.
func (d *Directory) Alive() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.aliveLocked()
}

func (d *Directory) aliveLocked() []string {
	out := make([]string, 0, len(d.members)+1)
	if !d.left {
		out = append(out, d.self)
	}
	for n, e := range d.members {
		if e.info.State != Dead {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the full gossip payload: self plus every known
// member (tombstones included, so obituaries propagate).
func (d *Directory) Snapshot() List {
	d.mu.Lock()
	defer d.mu.Unlock()
	selfState := Active
	if d.left {
		selfState = Dead
	}
	out := List{From: d.self, Epoch: d.epoch}
	out.Members = make([]Info, 0, len(d.members)+1)
	out.Members = append(out.Members, Info{Node: d.self, Incarnation: d.inc, State: selfState})
	for _, e := range d.members {
		out.Members = append(out.Members, e.info)
	}
	sort.Slice(out.Members, func(i, j int) bool { return out.Members[i].Node < out.Members[j].Node })
	return out
}

// Members returns a sorted copy of every known record including self
// and tombstones, for status surfaces.
func (d *Directory) Members() []Info {
	return d.Snapshot().Members
}

// Contact records direct, successful contact with node "now": an
// inbound exchange from it or a completed outbound exchange to it.
// Direct contact refreshes the lease and clears suspicion at the same
// incarnation; it cannot resurrect a dead record (rejoin requires a
// higher incarnation, which Merge handles).
func (d *Directory) Contact(node string) {
	if node == d.self || node == "" {
		return
	}
	d.mu.Lock()
	changed := false
	e, ok := d.members[node]
	switch {
	case !ok:
		d.members[node] = &entry{
			info:     Info{Node: node, Incarnation: 0, State: Active},
			lastSeen: d.now(),
		}
		changed = true
	case e.info.State == Dead:
		// Tombstone holds until the node rejoins with a newer
		// incarnation; refresh nothing.
	default:
		e.lastSeen = d.now()
		if e.info.State == Suspect {
			e.info.State = Active
			changed = true
		}
	}
	d.finish(changed)
}

// Merge folds a remote snapshot into the directory (last-writer-wins
// per node, higher incarnation first, worse state at ties) and
// reports whether the view changed. The caller should also Contact
// the sender if the snapshot arrived over a direct exchange.
func (d *Directory) Merge(remote List) bool {
	d.mu.Lock()
	changed := false
	if remote.Epoch > d.epoch {
		// Converge epochs upward so a stable fleet agrees on one
		// number; differing epochs mid-gossip are expected and only
		// degrade status reporting, never serving.
		d.epoch = remote.Epoch
	}
	for _, in := range remote.Members {
		if in.Node == d.self {
			// Refutation: someone thinks we are suspect or dead at an
			// incarnation as new as ours. Out-write them.
			if in.State != Active && in.Incarnation >= d.inc && !d.left {
				d.inc = in.Incarnation + 1
				changed = true
			}
			continue
		}
		e, ok := d.members[in.Node]
		switch {
		case !ok:
			seen := time.Time{}
			if in.State != Dead {
				seen = d.now() // fresh lease for a newly learned member
			}
			d.members[in.Node] = &entry{info: in, lastSeen: seen}
			changed = true
		case in.Incarnation > e.info.Incarnation:
			wasDead := e.info.State == Dead
			e.info = in
			if in.State != Dead {
				e.lastSeen = d.now()
			}
			if wasDead != (in.State == Dead) || !wasDead {
				changed = true
			}
		case in.Incarnation == e.info.Incarnation && worse(in.State, e.info.State):
			e.info.State = in.State
			changed = true
		}
	}
	d.finish(changed)
	return changed
}

// Sweep applies lease transitions against the injected clock: active
// members silent for lease/2 turn suspect, members silent for a full
// lease turn dead. Returns whether anything changed.
func (d *Directory) Sweep() bool {
	d.mu.Lock()
	now := d.now()
	changed := false
	for _, e := range d.members {
		if e.info.State == Dead {
			continue
		}
		silent := now.Sub(e.lastSeen)
		switch {
		case silent >= d.lease:
			e.info.State = Dead
			changed = true
		case silent >= d.lease/2 && e.info.State == Active:
			e.info.State = Suspect
			changed = true
		}
	}
	d.finish(changed)
	return changed
}

// Leave marks the local node dead at its current incarnation so the
// final gossip round carries our obituary (graceful drain). The
// directory keeps answering exchanges; it just stops advertising self
// as alive.
func (d *Directory) Leave() {
	d.mu.Lock()
	changed := !d.left
	d.left = true
	d.finish(changed)
}

// finish bumps the epoch if needed and releases the lock, then fires
// the change callback outside it.
func (d *Directory) finish(changed bool) {
	var ch Change
	var fn func(Change)
	if changed {
		d.epoch++
		fn = d.onChange
		ch = Change{Epoch: d.epoch, Alive: d.aliveLocked()}
	}
	d.mu.Unlock()
	if fn != nil {
		fn(ch)
	}
}

// Counts returns how many members (including self) are in each state.
func (d *Directory) Counts() (active, suspect, dead int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.left {
		dead++
	} else {
		active++
	}
	for _, e := range d.members {
		switch e.info.State {
		case Active:
			active++
		case Suspect:
			suspect++
		default:
			dead++
		}
	}
	return
}
