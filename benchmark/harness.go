package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obdrel"
	"obdrel/internal/pipeline"
	"obdrel/internal/server"
)

// opHeader carries the op sequence number on traced requests, so the
// server-side span joins the client-side one. The server ignores it.
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of that boundary.
type span struct {
	Name string `json:"name"`
	// Op is the op sequence number, or -1 for spans attributed to an op
	// by time containment (builds and peer serves run on the server's
	// goroutines, out of reach of the op header).
	Op    int                `json:"op"`
	Start int64              `json:"start_ns"` // since the phase began
	End   int64              `json:"end_ns"`
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a phase's spans in memory. It records nothing while off,
// so an untraced phase pays one atomic load per boundary.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// begin clears the store and starts recording.
func (t *tracer) begin() {
	t.mu.Lock()
	t.spans = nil
	t.t0 = time.Now()
	t.mu.Unlock()
	t.on.Store(true)
}

// end stops recording and returns the spans.
func (t *tracer) end() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// add records a span over [start, end].
func (t *tracer) add(name string, op int, start, end time.Time, attrs map[string]float64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs})
	t.mu.Unlock()
}

// node is one obdreld server behind a loopback listener. The handler
// sits behind an atomic pointer, so a workload can swap a fresh server
// in behind the same address.
type node struct {
	url  string
	tr   *tracer
	hs   *http.Server
	done chan struct{}
	h    atomic.Pointer[http.Handler]

	// srv and cache belong to the installed server; only the goroutine
	// that calls install reads them.
	srv   *server.Server
	cache *pipeline.Cache
}

// startNode listens on a loopback port and serves whatever server is
// installed there.
func startNode(tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), tr: tr, done: make(chan struct{})}
	n.hs = &http.Server{Handler: http.HandlerFunc(n.serve)}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// install builds a server with the daemon's default options and a
// stage cache of its own, routes the node's address to it, and closes
// the server it replaces. peers, when set, is the static ring.
func (n *node) install(peers []string) error {
	cache := pipeline.NewCache(64)
	opts := server.Options{Stages: cache, Build: n.build(cache)}
	if len(peers) > 0 {
		opts.Peers, opts.Self = peers, n.url
	}
	s, err := server.NewE(opts)
	if err != nil {
		return err
	}
	h := s.Handler()
	n.h.Store(&h)
	if n.srv != nil {
		n.srv.Close()
	}
	n.srv, n.cache = s, cache
	return nil
}

// close stops the listener and waits for the serve loop to exit.
func (n *node) close() {
	n.hs.Close()
	<-n.done
	if n.srv != nil {
		n.srv.Close()
	}
}

// serve is the server-side span: middleware around the installed
// server's Handler().
func (n *node) serve(w http.ResponseWriter, r *http.Request) {
	h := *n.h.Load()
	if !n.tr.on.Load() {
		h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.ServeHTTP(w, r)
	end := time.Now()
	name, attrs := "server", map[string]float64(nil)
	if strings.HasPrefix(r.URL.Path, "/v1/artifact/") {
		name = "artifact.serve"
		size, _ := strconv.Atoi(w.Header().Get("Content-Length"))
		attrs = map[string]float64{"bytes": float64(size)}
	}
	op := -1
	if v := r.Header.Get(opHeader); v != "" {
		op, _ = strconv.Atoi(v)
	}
	n.tr.add(name, op, start, end, attrs)
}

// build is the server's analyzer factory: obdrel.NewAnalyzerCtxIn over
// the node's stage cache, as the daemon's default, wrapped in the
// registry.build span. The span carries the per-stage Stat deltas —
// exact while one build runs at a time.
func (n *node) build(cache *pipeline.Cache) server.BuildFunc {
	return func(ctx context.Context, d *obdrel.Design, cfg *obdrel.Config) (*obdrel.Analyzer, error) {
		if !n.tr.on.Load() {
			return obdrel.NewAnalyzerCtxIn(ctx, cache, d, cfg)
		}
		before := stageTotals(cache)
		start := time.Now()
		an, err := obdrel.NewAnalyzerCtxIn(ctx, cache, d, cfg)
		end := time.Now()
		attrs := map[string]float64{}
		for stage, after := range stageTotals(cache) {
			b := before[stage]
			attrs[stage+".builds"] = float64(after.Builds - b.Builds)
			attrs[stage+".build_ns"] = (after.BuildSeconds - b.BuildSeconds) * 1e9
			attrs[stage+".peer_hits"] = float64(after.PeerHits - b.PeerHits)
		}
		n.tr.add("registry.build", -1, start, end, attrs)
		return an, err
	}
}

// stageTotals snapshots a stage cache's counters by stage name.
func stageTotals(c *pipeline.Cache) map[string]pipeline.StageStat {
	out := map[string]pipeline.StageStat{}
	for _, s := range c.Snapshot() {
		out[s.Stage] = s
	}
	return out
}

// builds counts the stage builds a cache has made.
func builds(c *pipeline.Cache) int64 {
	var n int64
	for _, s := range c.Snapshot() {
		n += s.Builds
	}
	return n
}

// client is the load generator's HTTP side: one connection per
// closed-loop client, each call a client span while tracing.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(conns int, tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}}
}

// call sends one request for op seq, reads the whole reply, and returns
// it with the round-trip time. A non-200 status is an error.
func (c *client) call(ctx context.Context, seq int, method, url string, body io.Reader) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, 0, err
	}
	traced := c.tr.on.Load()
	if traced {
		req.Header.Set(opHeader, strconv.Itoa(seq))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced {
		c.tr.add("client", seq, start, end, map[string]float64{"status": float64(resp.StatusCode)})
	}
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, end.Sub(start), fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, end.Sub(start), nil
}

// close releases the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// opRec is what one closed-loop op left behind.
type opRec struct {
	seq   int
	lat   time.Duration // request round trips, excluding client-side checks
	items int           // work units: 1, or a batch stream's items
	err   error         // transport, status, guard or answer failure
	// lookups counts the registry lookups the op made.
	lookups int
	// keep retains the op for the post-phase library check and replay;
	// groups is the engine work it caused, with the server's answers.
	keep   bool
	groups []egroup
	batch  *trailer
}

// phaseWindows is how many equal windows a phase is cut into for its
// windowed statistics.
const phaseWindows = 10

// minWindowOps is the fewest ops every window must hold before the
// end-to-end statistics are taken per window.
const minWindowOps = 50

// window is the ops that ended in one slice of a phase.
type window struct {
	items int
	lat   []float64
}

// phase is one timed closed-loop run.
type phase struct {
	recs  []opRec // the kept ops
	lat   []float64
	win   [phaseWindows]window
	d     time.Duration
	items int
	ops   int
	wall  time.Duration
	next  int // first sequence number after the phase
	fails map[int]error
}

// windowed reports whether every window holds enough ops for
// per-window statistics.
func (ph *phase) windowed() bool {
	for _, w := range ph.win {
		if len(w.lat) < minWindowOps {
			return false
		}
	}
	return true
}

// throughput is the work done per second: the median over windows
// when they are full enough, else over the whole phase.
func (ph *phase) throughput() float64 {
	if !ph.windowed() {
		return float64(ph.items) / ph.wall.Seconds()
	}
	per := make([]float64, 0, phaseWindows)
	for _, w := range ph.win {
		per = append(per, float64(w.items)/(ph.d.Seconds()/phaseWindows))
	}
	return median(per)
}

// p50 is the median latency in ms: the median of the windows'
// medians when they are full enough, else over the whole phase.
func (ph *phase) p50() float64 {
	if !ph.windowed() {
		return median(ph.lat)
	}
	per := make([]float64, 0, phaseWindows)
	for _, w := range ph.win {
		per = append(per, median(w.lat))
	}
	return median(per)
}

// runPhase drives clients closed-loop callers for d: each sends its
// next op only after the previous one returned. Sequence numbers start
// at first and are handed out in order.
func runPhase(ctx context.Context, clients int, d time.Duration, first int, op func(context.Context, int) opRec) *phase {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		ph   = &phase{d: d, fails: map[int]error{}}
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				recs  []opRec
				lat   []float64
				items int
				win   [phaseWindows]window
			)
			for time.Since(start) < d && ctx.Err() == nil {
				r := op(ctx, int(next.Add(1)-1))
				lat = append(lat, ms(r.lat))
				items += r.items
				if r.keep || r.err != nil {
					recs = append(recs, r)
				}
				// Ops that end after d count toward the phase, not a window.
				if i := int(time.Since(start) * phaseWindows / d); i < phaseWindows {
					win[i].items += r.items
					win[i].lat = append(win[i].lat, ms(r.lat))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.lat = append(ph.lat, lat...)
			ph.items += items
			for i := range win {
				ph.win[i].items += win[i].items
				ph.win[i].lat = append(ph.win[i].lat, win[i].lat...)
			}
			for _, r := range recs {
				if r.err != nil {
					ph.fails[r.seq] = r.err
				}
				if r.keep {
					ph.recs = append(ph.recs, r)
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.ops = len(ph.lat)
	ph.next = int(next.Load())
	return ph
}
