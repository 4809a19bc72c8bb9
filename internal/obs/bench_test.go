package obs

import (
	"context"
	"testing"
)

// BenchmarkSpanDisabled measures the cost tracing adds to hot paths
// when the context carries no trace — the path every library call
// takes under the PR 3 baseline. Must report 0 allocs/op.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := StartSpanJoin(ctx, "stage:", "thermal")
		_ = c
		sp.SetAttr("cache", "miss")
		sp.End()
	}
}

// BenchmarkSpanEnabled measures the same call shape with a live trace,
// for the enabled-vs-disabled overhead comparison with
// BenchmarkSpanDisabled.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(Options{RingSize: 4})
	ctx, root := tr.StartTrace(context.Background(), "bench", "", "")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, sp := StartSpanJoin(ctx, "stage:", "thermal")
		_ = c
		sp.SetAttr("cache", "hit")
		sp.End()
	}
}

// BenchmarkTraceLifecycle measures a full request-shaped trace: root,
// a handful of stage children, finalize into the ring.
func BenchmarkTraceLifecycle(b *testing.B) {
	tr := NewTracer(Options{RingSize: 128})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, root := tr.StartTrace(context.Background(), "GET /v1/lifetime", "", "")
		for s := 0; s < 8; s++ {
			_, sp := StartSpan(ctx, "stage")
			sp.SetAttr("cache", "hit")
			sp.End()
		}
		root.End()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1234567)
	}
}
