package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obdrel/internal/member"
)

// cluster is obdreld's sharding layer, and every cluster node runs it
// the same way, over a member directory. A -peers node's ring is its
// pinned list and nothing else: gossip only reports the members'
// liveness, and admits no name outside the list. A -join node's ring
// is the directory's alive set plus self, so it grows and shrinks
// with gossip; the directory swaps a new ring in on every change. Stage
// fingerprints map onto nodes with a consistent-hash ring, and a node
// that misses an artifact cache-fills it from the cluster via
// GET /v1/artifact/{stage}/{key} instead of recomputing physics.
//
// Ownership orders preference, it does not gate serving: the owner of
// a key is the node the ring designates as its canonical holder, so a
// fetch tries the owner first, then (bounded) ring successors that
// may hold a cached copy — a node can own a key it has never built,
// and a non-owner that built a key serves it happily. Every failure
// mode short of "nobody has it and the local build fails" degrades to
// a local build, never to a client-visible error.
//
// Nothing moves an artifact ahead of demand. Every artifact is a pure
// function of its key, so after a kill a survivor fills each lost key
// from a peer that holds it, or rebuilds it once, on its first
// request. After a join, the joiner's first fetch candidate for every
// key it gains is that key's previous owner, so it fills on demand
// from the node that held the key.
//
// Its background work — the heartbeat loop and a draining node's
// leave — starts in start and stops in close.
type cluster struct {
	self   string
	pinned []string // normalized -peers list, self included; nil for -join
	seeds  []string // -peers or -join URLs, normalized, self excluded
	dir    *member.Directory
	client *http.Client
	// transport is client's pooled connections to the peers; close
	// drops its idle ones.
	transport *http.Transport
	timeout   time.Duration

	mu    sync.RWMutex
	peers []string // normalized, sorted ring members: pinned, or alive ∪ self
	ring  *hashRing
	epoch uint64

	// ctx is cancelled by close: the loops return and their peer calls
	// end. wg counts every goroutine close waits for.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// fetchAttempts counts cluster fetches started; fetchFills those
	// satisfied by some peer; fetchErrors per-peer request failures
	// (one fetch may count several, one per dead candidate).
	fetchAttempts atomic.Int64
	fetchFills    atomic.Int64
	fetchErrors   atomic.Int64
	// fetchHedged counts fetches that launched a second candidate
	// because the first was slow (a fraction of -peer-timeout);
	// fetchHedgeWins those where a hedge-launched request delivered
	// the winning fill.
	fetchHedged    atomic.Int64
	fetchHedgeWins atomic.Int64
	heartbeatErrs  atomic.Int64
}

// maxFetchCandidates bounds how many peers one fetch consults (owner
// plus ring successors): enough redundancy to find a cached copy in a
// small cluster without turning one miss into a full-cluster scan.
const maxFetchCandidates = 3

// peerIdleConns is how many idle connections the peer transport keeps
// to each peer. An analyzer construction fetches up to five stages
// side by side, each fetch may hedge to a second candidate, and a
// node builds several analyzers at once; http.DefaultTransport keeps
// two, so the third concurrent fetch would dial a new connection on
// every request.
const peerIdleConns = 32

// newCluster validates the cluster options and builds the cluster
// over them: the ring seeded with the pinned list (or just self, for
// -join), and the member directory. Self must appear in a non-empty
// pinned list — a node that is not part of the ring it routes on would
// consider every key remote. Nothing runs until start.
func newCluster(o *Options) (*cluster, error) {
	if len(o.Peers) > 0 && len(o.JoinPeers) > 0 {
		return nil, fmt.Errorf("cluster: -peers and -join are mutually exclusive")
	}
	self := normalizePeer(o.Self)
	if self == "" {
		return nil, fmt.Errorf("cluster: -peers and -join require -self")
	}
	if !isBaseURL(self) {
		return nil, fmt.Errorf("cluster: self %q is not a base URL", self)
	}
	pins, err := peerList("-peers", o.Peers)
	if err != nil {
		return nil, err
	}
	if len(pins) > 0 && !slices.Contains(pins, self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", self)
	}
	join, err := peerList("-join", o.JoinPeers)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = peerIdleConns
	cl := &cluster{
		self:      self,
		pinned:    pins,
		seeds:     slices.DeleteFunc(slices.Concat(pins, join), func(p string) bool { return p == self }),
		dir:       member.New(self, o.Lease, nil),
		client:    &http.Client{Timeout: o.PeerTimeout, Transport: tr},
		transport: tr,
		timeout:   o.PeerTimeout,
		ctx:       ctx,
		cancel:    cancel,
	}
	cl.dir.SetOnChange(cl.onChange)
	cl.setMembers(nil, 1)
	return cl, nil
}

// start launches the heartbeat loop.
func (cl *cluster) start() {
	cl.background(cl.heartbeatLoop)
}

// background runs f in a goroutine that close waits for.
func (cl *cluster) background(f func()) {
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		f()
	}()
}

// close stops the background work, waits for it, and closes the
// transport's idle peer connections. Safe to call twice.
func (cl *cluster) close() {
	cl.cancel()
	cl.wg.Wait()
	cl.transport.CloseIdleConnections()
}

// peerList normalizes a -peers or -join list: blanks and duplicates
// drop, and every other entry must be a base URL. A list that is
// non-empty yet names no node is an error.
func peerList(flag string, in []string) ([]string, error) {
	var out []string
	for _, p := range in {
		p = normalizePeer(p)
		if p == "" || slices.Contains(out, p) {
			continue
		}
		if !isBaseURL(p) {
			return nil, fmt.Errorf("cluster: %s entry %q is not a base URL", flag, p)
		}
		out = append(out, p)
	}
	if len(in) > 0 && len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty %s list", flag)
	}
	return out, nil
}

// isBaseURL reports whether p is exactly a node's base URL: an http or
// https scheme and a host, with no user, path, query or fragment. It
// is the one check every name passes before it enters the ring: the
// -peers and -join lists, and every record gossip brings in.
func isBaseURL(p string) bool {
	u, err := url.Parse(p)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") &&
		u.Hostname() != "" && p == u.Scheme+"://"+u.Host
}

// setMembers installs the directory's alive set at the given epoch.
// The ring becomes the pinned list when there is one, whatever the
// members' states, and alive ∪ self otherwise, so a -peers node's ring
// never changes.
func (cl *cluster) setMembers(alive []string, epoch uint64) {
	norm := slices.Clone(cl.pinned)
	if len(norm) == 0 {
		norm = append([]string{cl.self}, alive...)
	}
	slices.Sort(norm)
	norm = slices.Compact(norm)
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.epoch = epoch
	if slices.Equal(norm, cl.peers) {
		return
	}
	cl.peers = norm
	cl.ring = newHashRing(norm, 64)
}

// ringView returns the current ring; peersView its members.
func (cl *cluster) ringView() *hashRing {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.ring
}

func (cl *cluster) peersView() []string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	out := make([]string, len(cl.peers))
	copy(out, cl.peers)
	return out
}

func (cl *cluster) epochView() uint64 {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.epoch
}

func normalizePeer(p string) string {
	return strings.TrimRight(strings.TrimSpace(p), "/")
}

// owns reports whether this node is the key's owner on the current
// ring — the filter of the startup warm sweep.
func (cl *cluster) owns(stage, key string) bool {
	return cl.ringView().owner(stage+"/"+key) == cl.self
}

// candidates lists the peers a fetch should try, in preference order:
// the key's owner first, then its ring successors, self excluded,
// capped at maxFetchCandidates.
func (cl *cluster) candidates(stage, key string) []string {
	seq := cl.ringView().successors(stage + "/" + key)
	out := make([]string, 0, maxFetchCandidates)
	for _, p := range seq {
		if p == cl.self {
			continue
		}
		out = append(out, p)
		if len(out) == maxFetchCandidates {
			break
		}
	}
	return out
}

// fetch is the pipeline's peer tier (pipeline.Tiers.Fetch): it asks
// the candidates for the sealed artifact, owner first. 200 fills; 404
// means that peer does not have it; transport errors and non-200s are
// counted and skipped. Exhausting the candidates returns (nil, false,
// err) with the last transport error, or a clean miss when every peer
// simply answered 404 — either way the pipeline builds locally.
//
// The walk is hedged: if the first candidate has not answered within
// a fraction of -peer-timeout, the next candidate is raced against it
// and the first success wins. A candidate that fails outright (or
// answers 404) advances the walk immediately, so a dead primary costs
// the hedge delay at most once, not a full timeout.
func (cl *cluster) fetch(ctx context.Context, stage, key string) ([]byte, bool, error) {
	cands := cl.candidates(stage, key)
	if len(cands) == 0 {
		return nil, false, nil
	}
	cl.fetchAttempts.Add(1)

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		sealed []byte
		err    error
		hedged bool // launched by the hedge timer, not the ordered walk
	}
	ch := make(chan result, len(cands))
	launched := 0
	launch := func(hedged bool) {
		peer := cands[launched]
		launched++
		go func() {
			sealed, err := cl.fetchFrom(fctx, peer, stage, key)
			ch <- result{sealed, err, hedged}
		}()
	}
	launch(false)

	hedge := time.NewTimer(cl.hedgeDelay())
	defer hedge.Stop()
	var lastErr error
	for pending := 1; pending > 0; {
		select {
		case r := <-ch:
			pending--
			if r.err != nil {
				if fctx.Err() == nil { // cancelled losers are not peer failures
					cl.fetchErrors.Add(1)
					lastErr = r.err
				}
				if ctx.Err() != nil {
					return nil, false, lastErr
				}
			} else if r.sealed != nil {
				cl.fetchFills.Add(1)
				if r.hedged {
					cl.fetchHedgeWins.Add(1)
				}
				return r.sealed, true, nil
			}
			// Error or clean 404: advance the walk.
			if launched < len(cands) && ctx.Err() == nil {
				launch(false)
				pending++
			}
		case <-hedge.C:
			if launched < len(cands) && ctx.Err() == nil {
				cl.fetchHedged.Add(1)
				launch(true)
				pending++
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	return nil, false, lastErr
}

// hedgeDelay is the slow-candidate threshold: a quarter of the peer
// timeout, floored so sub-millisecond test timeouts don't hedge on
// scheduler noise.
func (cl *cluster) hedgeDelay() time.Duration {
	d := cl.timeout / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// hashRing is a consistent-hash ring with virtual nodes: each peer
// contributes vnodes points at fnv64a(peer + "#" + i), keys hash the
// same way, and a key belongs to the first point clockwise. Adding or
// removing one peer moves only ~1/N of the key space — the property
// that makes a rolling redeploy of the fleet cheap.
type hashRing struct {
	points []ringPoint
	nodes  int // distinct nodes on the ring
}

type ringPoint struct {
	h    uint64
	node string
}

func newHashRing(nodes []string, vnodes int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(nodes)*vnodes), nodes: len(nodes)}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// successors lists distinct nodes clockwise from the key's point —
// the owner first, then the nodes that would inherit the key if the
// owner left the ring. The walk stops at maxFetchCandidates+1 nodes,
// enough for candidates even when self is among them.
func (r *hashRing) successors(key string) []string {
	want := min(r.nodes, maxFetchCandidates+1)
	out := make([]string, 0, want)
	for i, n := r.at(key), 0; n < len(r.points) && len(out) < want; n++ {
		if p := r.points[(i+n)%len(r.points)]; !slices.Contains(out, p.node) {
			out = append(out, p.node)
		}
	}
	return out
}

// owner returns the node the ring designates for key: the first of its
// successors.
func (r *hashRing) owner(key string) string {
	return r.points[r.at(key)].node
}

// shares reports each node's exact share of the key space: the total
// arc length (as a fraction of 2^64) that hashes onto its points. The
// cluster-status surface reports it so an operator can see ring
// imbalance directly instead of inferring it from traffic skew.
func (r *hashRing) shares() map[string]float64 {
	out := make(map[string]float64)
	if len(r.points) == 0 {
		return out
	}
	if len(r.points) == 1 {
		out[r.points[0].node] = 1
		return out
	}
	const full = float64(1<<63) * 2 // 2^64 without overflowing
	prev := r.points[len(r.points)-1].h
	for _, p := range r.points {
		// The arc (prev, p.h] belongs to p.node; the first point also
		// takes the wraparound arc from the last point through zero.
		arc := p.h - prev // uint64 arithmetic wraps correctly
		out[p.node] += float64(arc) / full
		prev = p.h
	}
	return out
}

// at returns the index of the first ring point at or after the key's
// hash, wrapping at the top.
func (r *hashRing) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is FNV-64a strengthened with the splitmix64 finalizer. Raw
// FNV of short, similar strings (vnode labels, hex fingerprints) barely
// avalanches the high bits — all the ring points land in a narrow band
// and most keys wrap to whichever node holds the smallest point, which
// collapses the balance the ring exists for. The finalizer spreads
// both points and keys across the full 64-bit space.
func hash64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
