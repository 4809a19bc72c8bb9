package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer(Options{})
	ctx, root := tr.StartTrace(context.Background(), "GET /v1/lifetime", "", "")
	if root == nil {
		t.Fatal("StartTrace returned nil root")
	}
	if len(root.TraceID()) != 32 {
		t.Fatalf("trace id %q: want 32 hex chars", root.TraceID())
	}

	ctx1, sp1 := StartSpan(ctx, "stage:thermal")
	sp1.SetAttr("cache", "miss")
	_, sp11 := StartSpanJoin(ctx1, "thermal.", "sor")
	sp11.SetAttr("iterations", 42)
	sp11.End()
	sp1.End()
	_, sp2 := StartSpan(ctx, "stage:weibull")
	sp2.SetAttr("cache", "hit")
	sp2.End()

	out := root.EndTrace()
	if out == nil {
		t.Fatal("EndTrace on root returned nil")
	}
	if out.SpanCount != 4 {
		t.Fatalf("SpanCount = %d, want 4", out.SpanCount)
	}
	if out.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", out.Dropped)
	}
	if len(out.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(out.Root.Children))
	}
	// Children sorted by start offset: thermal first.
	th := out.Root.Children[0]
	if th.Name != "stage:thermal" || th.Attrs["cache"] != "miss" {
		t.Fatalf("first child = %+v, want stage:thermal cache=miss", th)
	}
	if len(th.Children) != 1 || th.Children[0].Name != "thermal.sor" {
		t.Fatalf("thermal children = %+v, want [thermal.sor]", th.Children)
	}
	if th.Children[0].Attrs["iterations"] != 42 {
		t.Fatalf("sor attrs = %v", th.Children[0].Attrs)
	}
	if tr.Total() != 1 {
		t.Fatalf("Total = %d, want 1", tr.Total())
	}
}

func TestUntracedContextIsNil(t *testing.T) {
	ctx := context.Background()
	if sp := FromContext(ctx); sp != nil {
		t.Fatalf("FromContext on bare ctx = %v", sp)
	}
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan on untraced ctx must return (ctx, nil) unchanged")
	}
	// All nil-span methods must be safe no-ops.
	sp.SetAttr("k", "v")
	sp.End()
	if out := sp.EndTrace(); out != nil {
		t.Fatal("nil EndTrace must return nil")
	}
	if sp.ID() != "" || sp.TraceID() != "" {
		t.Fatal("nil span getters must return empty")
	}
	var nilTracer *Tracer
	if c, s := nilTracer.StartTrace(ctx, "r", "", ""); s != nil || c != ctx {
		t.Fatal("nil tracer StartTrace must return (ctx, nil)")
	}
	if nilTracer.Recent(5) != nil || nilTracer.Total() != 0 {
		t.Fatal("nil tracer accessors must be zero")
	}
}

// TestDisabledPathZeroAlloc is the ISSUE's zero-allocation guarantee:
// tracing code threaded through hot paths must cost nothing when the
// context carries no trace.
func TestDisabledPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "stage:thermal")
		_ = c
		sp.SetAttr("cache", "miss")
		sp.End()
		_, sp2 := StartSpanJoin(ctx, "stage:", "pca")
		sp2.End()
		if FromContext(ctx) != nil {
			t.Fatal("unexpected span")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %v per op, want 0", allocs)
	}
}

func TestLateSpanDropped(t *testing.T) {
	tr := NewTracer(Options{})
	ctx, root := tr.StartTrace(context.Background(), "req", "", "")
	_, late := StartSpan(ctx, "coalesced-build")
	out := root.EndTrace() // root ends while "late" is still open
	if out.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", out.Dropped)
	}
	late.End() // must not mutate the delivered snapshot
	if out.SpanCount != 1 || len(out.Root.Children) != 0 {
		t.Fatalf("late End mutated snapshot: %+v", out)
	}
	if tr.LateSpans() != 1 {
		t.Fatalf("LateSpans = %d, want 1", tr.LateSpans())
	}
}

// TestOpenParentChildReparents: a completed child of a still-open span
// attaches to the nearest completed ancestor instead of vanishing.
func TestOpenParentChildReparents(t *testing.T) {
	tr := NewTracer(Options{})
	ctx, root := tr.StartTrace(context.Background(), "req", "", "")
	ctx1, open := StartSpan(ctx, "open-middle")
	_, leaf := StartSpan(ctx1, "leaf")
	leaf.End()
	out := root.EndTrace()
	_ = open
	if out.SpanCount != 2 {
		t.Fatalf("SpanCount = %d, want 2", out.SpanCount)
	}
	if len(out.Root.Children) != 1 || out.Root.Children[0].Name != "leaf" {
		t.Fatalf("leaf not reparented to root: %+v", out.Root.Children)
	}
}

func TestRingBound(t *testing.T) {
	tr := NewTracer(Options{RingSize: 4})
	for i := 0; i < 10; i++ {
		ctx, root := tr.StartTrace(context.Background(), "req", "", "")
		_ = ctx
		root.SetAttr("seq", i)
		root.End()
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) = %d traces, want ring bound 4", len(recent))
	}
	// Newest first: 9, 8, 7, 6.
	for i, want := range []int{9, 8, 7, 6} {
		if got := recent[i].Root.Attrs["seq"]; got != want {
			t.Fatalf("recent[%d] seq = %v, want %d", i, got, want)
		}
	}
	if got := len(tr.Recent(2)); got != 2 {
		t.Fatalf("Recent(2) = %d, want 2", got)
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
}

// TestRingSpanBound checks the ring's memory bound: traces with many
// spans evict the oldest ones before the count bound is reached, and
// the newest trace is kept even when it alone exceeds the budget.
func TestRingSpanBound(t *testing.T) {
	tr := NewTracer(Options{RingSize: 4}) // budget 4×64 = 256 spans
	trace := func(seq, children int) {
		ctx, root := tr.StartTrace(context.Background(), "req", "", "")
		root.SetAttr("seq", seq)
		for i := 0; i < children; i++ {
			_, sp := StartSpan(ctx, "child")
			sp.End()
		}
		root.End()
	}
	for i := 0; i < 4; i++ {
		trace(i, 99) // 100 spans each
	}
	recent := tr.Recent(0)
	if len(recent) != 2 || recent[0].Root.Attrs["seq"] != 3 || recent[1].Root.Attrs["seq"] != 2 {
		t.Fatalf("ring after four 100-span traces holds %d, want the newest two", len(recent))
	}
	trace(4, 999)
	if recent = tr.Recent(0); len(recent) != 1 || recent[0].SpanCount != 1000 {
		t.Fatalf("ring after a 1000-span trace holds %d traces, want only it", len(recent))
	}
	for i := 5; i < 9; i++ {
		trace(i, 0)
	}
	if got := len(tr.Recent(0)); got != 4 {
		t.Fatalf("small traces: ring holds %d, want count bound 4", got)
	}
}

func TestJSONLExporter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(Options{JSONL: &buf})
	for i := 0; i < 3; i++ {
		ctx, root := tr.StartTrace(context.Background(), "req", "", "")
		_, sp := StartSpan(ctx, "work")
		sp.End()
		root.End()
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	var decoded TraceOut
	if err := json.Unmarshal([]byte(lines[0]), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.SpanCount != 2 || decoded.Root == nil || len(decoded.Root.Children) != 1 {
		t.Fatalf("decoded trace = %+v", decoded)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := Traceparent(tid, sid)
	gt, gs, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid {
		t.Fatalf("round trip %q -> (%q, %q, %v)", h, gt, gs, ok)
	}
	bad := []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // all-zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"ff-" + tid + "-" + sid + "-01",                     // forbidden version
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",    // uppercase hex
		"00x" + tid + "-" + sid + "-01",                     // bad separator
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed header", h)
		}
	}
}

// FuzzTraceparent feeds ParseTraceparent the header any client or
// peer can send. It must not panic; an accepted header must be
// well-formed (lower-hex version, ids and flags, non-zero ids); and
// the ids it yields must survive Traceparent and a second parse.
func FuzzTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		for _, field := range []string{h[:2], tid, sid, h[53:]} {
			if !isLowerHex(field) {
				t.Fatalf("accepted %q with a field %q that is not lower-case hex", h, field)
			}
		}
		if allZero(tid) || allZero(sid) {
			t.Fatalf("accepted %q with an all-zero id", h)
		}
		gt, gs, ok := ParseTraceparent(Traceparent(tid, sid))
		if !ok || gt != tid || gs != sid {
			t.Fatalf("%q: ids (%q, %q) came back as (%q, %q, %v)", h, tid, sid, gt, gs, ok)
		}
	})
}

func TestAdoptedTraceID(t *testing.T) {
	tr := NewTracer(Options{})
	tid, psid := NewTraceID(), NewSpanID()
	_, root := tr.StartTrace(context.Background(), "req", tid, psid)
	if root.TraceID() != tid {
		t.Fatalf("TraceID = %q, want adopted %q", root.TraceID(), tid)
	}
	out := root.EndTrace()
	if out.Root.Attrs["remote_parent"] != psid {
		t.Fatalf("remote_parent attr = %v, want %q", out.Root.Attrs, psid)
	}
}

func TestIDUniqueness(t *testing.T) {
	seen := make(map[string]bool, 4096)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 0, 512)
			for i := 0; i < 512; i++ {
				local = append(local, NewSpanID())
			}
			mu.Lock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate span id %q", id)
				}
				seen[id] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// TestConcurrentSpans stresses the lock-free completed-span list and
// the abandoned-builder SetAttr/End race under -race: many goroutines
// open, annotate, and end spans of one trace while the root ends
// midway through.
func TestConcurrentSpans(t *testing.T) {
	for round := 0; round < 20; round++ {
		tr := NewTracer(Options{RingSize: 8})
		ctx, root := tr.StartTrace(context.Background(), "stress", "", "")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					c, sp := StartSpan(ctx, "worker")
					sp.SetAttr("g", g)
					_, inner := StartSpan(c, "inner")
					inner.SetAttr("i", i)
					inner.End()
					sp.End()
					sp.End() // idempotent
				}
			}(g)
		}
		close(start)
		if round%2 == 0 {
			root.End() // finalize while workers still spawn spans
		}
		wg.Wait()
		out := root.EndTrace()
		if round%2 == 1 {
			if out == nil {
				t.Fatal("EndTrace returned nil for root")
			}
			if got := out.SpanCount + out.Dropped; got != 16*50*2+1 {
				t.Fatalf("spans accounted = %d, want %d", got, 16*50*2+1)
			}
		}
	}
}

func TestHistogramQuantilesAndMax(t *testing.T) {
	var h Histogram
	// 100 samples at ~1ms, 10 at ~80ms, 1 at 30s (overflow).
	for i := 0; i < 100; i++ {
		h.Observe(800 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	h.Observe(30 * time.Second)
	if h.Count() != 111 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 30*time.Second {
		t.Fatalf("Max = %v, want 30s", h.Max())
	}
	p50 := h.Quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 1*time.Millisecond {
		t.Fatalf("p50 = %v, want within (0.5ms, 1ms] bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 50*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want within (50ms, 100ms] bucket", p99)
	}
	// Quantiles landing in the overflow bucket report the exact max.
	if q := h.Quantile(1.0); q != 30*time.Second {
		t.Fatalf("Quantile(1.0) = %v, want exact max", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramBucketShape(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond) // lands in the (2.5ms, 5ms] bucket
	counts := h.BucketCounts()
	if len(counts) != len(LatencyBuckets)+1 {
		t.Fatalf("bucket count = %d, want %d", len(counts), len(LatencyBuckets)+1)
	}
	idx := -1
	for i, c := range counts {
		if c != 0 {
			idx = i
			break
		}
	}
	if idx < 0 || LatencyBuckets[idx] != 0.005 {
		t.Fatalf("3ms sample landed at bucket index %d", idx)
	}
}

func TestSpanWalk(t *testing.T) {
	tr := NewTracer(Options{})
	ctx, root := tr.StartTrace(context.Background(), "req", "", "")
	c1, a := StartSpan(ctx, "a")
	_, b := StartSpan(c1, "b")
	b.End()
	a.End()
	out := root.EndTrace()
	var names []string
	out.Root.Walk(func(s *SpanOut) { names = append(names, s.Name) })
	if len(names) != 3 || names[0] != "req" || names[1] != "a" || names[2] != "b" {
		t.Fatalf("Walk order = %v", names)
	}
}
