// Package obs is the stdlib-only observability substrate: a span
// tracer whose traces parent through context.Context, plus the shared
// fixed-bucket latency histogram (histogram.go).
//
// The design splits the cost model in two:
//
//   - Disabled path (no trace in the context, or a nil *Tracer): every
//     entry point — StartSpan, StartSpanJoin, Annotate — is a pointer
//     check that returns a nil *Span. Nil spans accept every method as
//     a no-op, so instrumented code never branches. This path performs
//     ZERO allocations and takes no locks; bench_test.go proves it.
//   - Enabled path: spans are plain structs owned by the goroutine
//     that started them. End pushes the span onto the trace's
//     completed list with a lock-free CAS; the only mutex is a tiny
//     per-span guard on the attribute slice (needed because a stage
//     build abandoned by its waiter can annotate a span concurrently
//     with the waiter ending it).
//
// A trace finalizes when its ROOT span ends: the completed-span list
// is snapshotted into an immutable TraceOut tree and delivered to the
// tracer's two sinks — a bounded ring of recent traces (served by
// /debug/traces) and an optional JSONL exporter. Spans still open at
// that moment (e.g. a coalesced stage build that outlives the request
// that started it) are counted as dropped; spans that end after
// finalization are discarded, never delivered to someone else's
// snapshot.
//
// Trace identity follows the W3C Trace Context format so that callers
// (load generators, upstream proxies) can join server traces to their own:
// ParseTraceparent / Traceparent convert the `traceparent` header.
package obs

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Values should be JSON-marshalable
// scalars (string, bool, int, float64); they are exported verbatim.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation inside a trace. A Span is owned by the
// goroutine that started it; SetAttr and End are additionally safe to
// call from a second goroutine (a build that outlives its waiter), at
// the cost of a short per-span lock.
type Span struct {
	tr     *trace
	parent *Span
	name   string
	id     string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	ended  bool
	dur    time.Duration
	remote []*SpanOut

	// next links the trace's lock-free completed-span list.
	next *Span
}

// trace is the mutable in-flight state behind a root span.
type trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time
	root   *Span

	// head is the lock-free LIFO list of completed spans.
	head      atomic.Pointer[Span]
	nStarted  atomic.Int64
	finalized atomic.Bool
	read      atomic.Bool // see Span.MarkRead
	out       *TraceOut   // set by finalize; read only by EndTrace
}

// spanKey carries the active *Span through a context.
type spanKey struct{}

// FromContext returns the active span, or nil when the context is
// untraced. The nil case allocates nothing.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns a context carrying sp as the active span —
// and nothing else from the parent chain. It is the detach primitive
// for builds that must escape a request's cancellation but keep its
// trace: pipeline flights derive their background context through it.
// A nil sp returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// StartSpan opens a child of the context's active span. Untraced
// contexts return (ctx, nil) with zero allocations; nil spans no-op
// every method, so call sites need no branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := newSpan(parent.tr, parent, name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpanJoin is StartSpan with the span name split in two, so the
// disabled path never pays the prefix+name concatenation.
func StartSpanJoin(ctx context.Context, prefix, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := newSpan(parent.tr, parent, prefix+name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Annotate sets an attribute on the context's active span, if any.
// Callers on hot paths should nil-check FromContext themselves before
// boxing values into `any`.
func Annotate(ctx context.Context, key string, value any) {
	FromContext(ctx).SetAttr(key, value)
}

func newSpan(tr *trace, parent *Span, name string) *Span {
	tr.nStarted.Add(1)
	return &Span{
		tr:     tr,
		parent: parent,
		name:   name,
		id:     NewSpanID(),
		start:  time.Now(),
	}
}

// ID returns the span's 16-hex-digit id ("" for nil).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// TraceID returns the 32-hex-digit id of the span's trace ("" for
// nil).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.tr.id
}

// MarkRead records that the span's trace will be read when it ends —
// an ?explain=1 answer embeds it — so work only a reader needs, such
// as asking a peer for its span subtree, is done for it. No-op on nil
// spans.
func (sp *Span) MarkRead() {
	if sp != nil {
		sp.tr.read.Store(true)
	}
}

// Read reports whether the span's trace will be read when it ends:
// it was marked read, or the tracer exports every trace as JSONL. The
// ring behind Recent does not count: nobody may ever ask it. False on
// nil spans.
func (sp *Span) Read() bool {
	return sp != nil && (sp.tr.read.Load() || sp.tr.tracer.opts.JSONL != nil)
}

// SetAttr records a key/value attribute. Later writes of the same key
// win at export. No-op on nil spans and after End.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.attrs = append(sp.attrs, Attr{key, value})
	}
	sp.mu.Unlock()
}

// AttachRemote grafts an already-finished span subtree produced by
// ANOTHER process (e.g. the owning node's `peer.serve` trace, returned
// in a response header) under sp. At export the subtree appears among
// sp's children with its start offsets rebased onto sp's timeline —
// remote clocks are not assumed synchronized, so the remote root is
// pinned to sp's own start and only intra-subtree offsets are kept.
// The caller hands over ownership of sub; it must not mutate it after.
// No-op on nil spans, nil subtrees, and after End.
func (sp *Span) AttachRemote(sub *SpanOut) {
	if sp == nil || sub == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.remote = append(sp.remote, sub)
	}
	sp.mu.Unlock()
}

// End completes the span: its duration freezes and it is pushed onto
// the trace's completed list (lock-free). Ending the root span
// finalizes the whole trace and delivers it to the tracer's sinks.
// End is idempotent; no-op on nil spans.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	sp.dur = time.Since(sp.start)
	sp.mu.Unlock()

	tr := sp.tr
	if tr.finalized.Load() {
		// The trace was already delivered (its root ended while this
		// span — typically a coalesced build serving someone else —
		// was still running). Dropping the span here keeps delivered
		// snapshots immutable.
		tr.tracer.lateSpans.Add(1)
		return
	}
	for {
		old := tr.head.Load()
		sp.next = old
		if tr.head.CompareAndSwap(old, sp) {
			break
		}
	}
	if sp == tr.root {
		tr.tracer.finalize(tr)
	}
}

// EndTrace ends the span and, when it is its trace's root, returns the
// finalized TraceOut (nil otherwise). This is how a server middleware
// both completes a request trace and embeds it in an ?explain=1
// response without racing the sinks.
func (sp *Span) EndTrace() *TraceOut {
	if sp == nil {
		return nil
	}
	sp.End()
	if sp.tr.root != sp {
		return nil
	}
	return sp.tr.out
}

// TraceOut is an immutable, JSON-ready snapshot of a finished trace.
type TraceOut struct {
	TraceID string    `json:"trace_id"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	DurUs   float64   `json:"dur_us"`
	// SpanCount is the number of completed spans in the tree; Dropped
	// counts spans still open when the root ended (their timings are
	// lost, the count is not).
	SpanCount int      `json:"span_count"`
	Dropped   int      `json:"dropped_spans,omitempty"`
	Root      *SpanOut `json:"root"`
}

// SpanOut is one exported span. Start offsets are relative to the
// trace start so a tree reads as a waterfall.
type SpanOut struct {
	Name     string         `json:"name"`
	SpanID   string         `json:"span_id"`
	StartUs  float64        `json:"start_us"`
	DurUs    float64        `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanOut     `json:"children,omitempty"`
}

// Walk visits the span and every descendant, depth-first.
func (s *SpanOut) Walk(visit func(*SpanOut)) {
	if s == nil {
		return
	}
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}

// Options configure a Tracer.
type Options struct {
	// RingSize bounds the recent-trace ring served by Recent
	// (default 128, minimum 1). The ring also holds at most
	// RingSize×64 spans; the oldest traces go first.
	RingSize int
	// JSONL, when non-nil, receives every finalized trace as one JSON
	// line. Writes are serialized; a write error disables the exporter.
	JSONL io.Writer
}

// Tracer owns trace production and the two delivery sinks. A nil
// *Tracer is a valid disabled tracer: StartTrace returns a nil span.
type Tracer struct {
	opts Options

	mu    sync.Mutex
	ring  []*TraceOut // circular; ring[start] is the oldest of n
	start int
	n     int
	spans int // Σ SpanCount over the n held traces

	jsonlMu  sync.Mutex
	jsonlErr error

	total     atomic.Int64
	lateSpans atomic.Int64
}

// NewTracer returns a tracer with the given options.
func NewTracer(opts Options) *Tracer {
	if opts.RingSize < 1 {
		opts.RingSize = 128
	}
	return &Tracer{opts: opts, ring: make([]*TraceOut, opts.RingSize)}
}

// ringSpansPerTrace bounds the ring by memory as well as by length: it
// holds at most RingSize×ringSpansPerTrace spans, dropping the oldest
// traces first and always keeping the newest. A unary request exports
// a handful of spans, but a /v1/batch stream exports hundreds, so a
// ring bounded by count alone let 128 batch traces pin tens of
// megabytes.
const ringSpansPerTrace = 64

// StartTrace opens a new trace rooted at a span called name and
// returns a context carrying it. A non-empty traceID adopts the
// caller's identity (e.g. an incoming W3C traceparent); parentSpanID,
// when non-empty, is recorded as the remote parent. A nil tracer
// returns (ctx, nil).
func (t *Tracer) StartTrace(ctx context.Context, name, traceID, parentSpanID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if traceID == "" {
		traceID = NewTraceID()
	}
	tr := &trace{tracer: t, id: traceID, name: name, start: time.Now()}
	root := newSpan(tr, nil, name)
	root.start = tr.start
	tr.root = root
	if parentSpanID != "" {
		root.SetAttr("remote_parent", parentSpanID)
	}
	return context.WithValue(ctx, spanKey{}, root), root
}

// finalize snapshots a trace and delivers it to the sinks. Called
// exactly once, from the root span's End.
func (t *Tracer) finalize(tr *trace) {
	tr.finalized.Store(true)
	out := export(tr)
	tr.out = out
	t.total.Add(1)

	t.mu.Lock()
	if t.n == len(t.ring) {
		t.dropOldest()
	}
	t.ring[(t.start+t.n)%len(t.ring)] = out
	t.n++
	t.spans += out.SpanCount
	for t.n > 1 && t.spans > len(t.ring)*ringSpansPerTrace {
		t.dropOldest()
	}
	t.mu.Unlock()

	if t.opts.JSONL != nil {
		t.jsonlMu.Lock()
		if t.jsonlErr == nil {
			enc, err := json.Marshal(out)
			if err == nil {
				enc = append(enc, '\n')
				_, err = t.opts.JSONL.Write(enc)
			}
			t.jsonlErr = err
		}
		t.jsonlMu.Unlock()
	}
}

// dropOldest evicts the ring's oldest trace. Called with t.mu held.
func (t *Tracer) dropOldest() {
	t.spans -= t.ring[t.start].SpanCount
	t.ring[t.start] = nil
	t.start = (t.start + 1) % len(t.ring)
	t.n--
}

// export builds the immutable span tree from the completed-span list.
func export(tr *trace) *TraceOut {
	var spans []*Span
	for sp := tr.head.Load(); sp != nil; sp = sp.next {
		spans = append(spans, sp)
	}
	nodes := make(map[*Span]*SpanOut, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		var attrs map[string]any
		if len(sp.attrs) > 0 {
			attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				attrs[a.Key] = a.Value
			}
		}
		n := &SpanOut{
			Name:    sp.name,
			SpanID:  sp.id,
			StartUs: float64(sp.start.Sub(tr.start).Nanoseconds()) / 1e3,
			DurUs:   float64(sp.dur.Nanoseconds()) / 1e3,
			Attrs:   attrs,
		}
		for _, sub := range sp.remote {
			rebase(sub, n.StartUs-sub.StartUs)
			n.Children = append(n.Children, sub)
		}
		nodes[sp] = n
		sp.mu.Unlock()
	}
	root := nodes[tr.root]
	for _, sp := range spans {
		if sp == tr.root {
			continue
		}
		// Attach to the nearest COMPLETED ancestor: an open parent
		// (dropped) must not orphan its finished children.
		parent := root
		for anc := sp.parent; anc != nil; anc = anc.parent {
			if n, ok := nodes[anc]; ok {
				parent = n
				break
			}
		}
		parent.Children = append(parent.Children, nodes[sp])
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].StartUs < n.Children[j].StartUs })
	}
	return &TraceOut{
		TraceID:   tr.id,
		Name:      tr.name,
		Start:     tr.start,
		DurUs:     root.DurUs,
		SpanCount: len(spans),
		Dropped:   int(tr.nStarted.Load()) - len(spans),
		Root:      root,
	}
}

// rebase shifts a remote subtree's start offsets by delta µs, pinning
// its root onto the local span it was grafted under.
func rebase(s *SpanOut, delta float64) {
	s.StartUs += delta
	for _, c := range s.Children {
		rebase(c, delta)
	}
}

// Recent returns up to n finalized traces, newest first. n <= 0 means
// the whole ring.
func (t *Tracer) Recent(n int) []*TraceOut {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]*TraceOut, 0, n)
	for i := t.n - 1; len(out) < n; i-- {
		out = append(out, t.ring[(t.start+i)%len(t.ring)])
	}
	return out
}

// Total returns the number of traces finalized so far.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// LateSpans returns the number of spans discarded because they ended
// after their trace was finalized.
func (t *Tracer) LateSpans() int64 {
	if t == nil {
		return 0
	}
	return t.lateSpans.Load()
}

// ---- trace identity (W3C Trace Context) ----

// idState seeds the lock-free id generator; splitmix64 over an atomic
// counter gives unique, well-mixed ids without crypto/rand's syscall
// cost or a locked math/rand source.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 | 1)
}

func nextRand() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // all-zero ids are invalid in W3C trace context
	}
	return x
}

// NewTraceID returns a fresh 32-hex-digit (128-bit) trace id.
func NewTraceID() string {
	var b [16]byte
	putUint64(b[:8], nextRand())
	putUint64(b[8:], nextRand())
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 16-hex-digit (64-bit) span id.
func NewSpanID() string {
	var b [8]byte
	putUint64(b[:], nextRand())
	return hex.EncodeToString(b[:])
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// Traceparent formats a W3C traceparent header value (version 00,
// sampled flag set).
func Traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent extracts the trace id and parent span id from a W3C
// traceparent header value. Malformed (flags included), all-zero, or
// version-ff headers return ok=false.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	ver, tid, sid, flags := h[:2], h[3:35], h[36:52], h[53:]
	if ver == "ff" || !isLowerHex(ver) || !isLowerHex(tid) || !isLowerHex(sid) || !isLowerHex(flags) ||
		allZero(tid) || allZero(sid) {
		return "", "", false
	}
	return tid, sid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
