package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestHistogramMergeEqualsPooled is the merge property test: merging k
// randomly-filled histograms must be indistinguishable from pooling
// the same samples into a single histogram — identical bucket counts,
// identical quantiles, and the exact (not bucket-rounded) max.
func TestHistogramMergeEqualsPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(6)
		parts := make([]*Histogram, k)
		pooled := &Histogram{}
		for i := range parts {
			parts[i] = &Histogram{}
			n := rng.Intn(400)
			for j := 0; j < n; j++ {
				// Log-uniform samples from ~1µs to ~20s so every bucket
				// (including the +Inf overflow) gets exercised.
				exp := rng.Float64()*7.3 - 6
				d := time.Duration(math.Pow(10, exp) * 1e9)
				parts[i].Observe(d)
				pooled.Observe(d)
			}
		}
		merged := &Histogram{}
		for _, p := range parts {
			merged.MergeSnapshot(p.Snapshot())
		}
		if got, want := merged.Count(), pooled.Count(); got != want {
			t.Fatalf("trial %d: merged count %d, pooled %d", trial, got, want)
		}
		if got, want := merged.Sum(), pooled.Sum(); got != want {
			t.Fatalf("trial %d: merged sum %v, pooled %v", trial, got, want)
		}
		if got, want := merged.Max(), pooled.Max(); got != want {
			t.Fatalf("trial %d: merged max %v, pooled %v (max must be exact)", trial, got, want)
		}
		mb, pb := merged.BucketCounts(), pooled.BucketCounts()
		for i := range mb {
			if mb[i] != pb[i] {
				t.Fatalf("trial %d: bucket %d merged %d pooled %d", trial, i, mb[i], pb[i])
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
			if got, want := merged.Quantile(q), pooled.Quantile(q); got != want {
				t.Fatalf("trial %d: q%.2f merged %v pooled %v", trial, q, got, want)
			}
		}
	}
}

// TestHistogramMergeEmptyIdentity: merging an empty histogram changes
// nothing; merging into an empty histogram reproduces the source.
func TestHistogramMergeEmptyIdentity(t *testing.T) {
	h := &Histogram{}
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	before := h.Snapshot()

	h.MergeSnapshot((&Histogram{}).Snapshot())
	after := h.Snapshot()
	if after.Count != before.Count || after.SumNs != before.SumNs || after.MaxNs != before.MaxNs {
		t.Fatalf("empty merge mutated histogram: %+v -> %+v", before, after)
	}

	empty := &Histogram{}
	empty.MergeSnapshot(h.Snapshot())
	got := empty.Snapshot()
	if got.Count != before.Count || got.SumNs != before.SumNs || got.MaxNs != before.MaxNs {
		t.Fatalf("merge into empty lost samples: want %+v got %+v", before, got)
	}
	for i := range got.Buckets {
		if got.Buckets[i] != before.Buckets[i] {
			t.Fatalf("bucket %d: want %d got %d", i, before.Buckets[i], got.Buckets[i])
		}
	}
}

// TestHistogramMergeSnapshotLayoutMismatch: foreign bucket layouts are
// rejected wholesale rather than partially applied.
func TestHistogramMergeSnapshotLayoutMismatch(t *testing.T) {
	h := &Histogram{}
	if h.MergeSnapshot(HistogramSnapshot{Buckets: []int64{1, 2, 3}, Count: 6}) {
		t.Fatal("mismatched layout accepted")
	}
	if h.Count() != 0 {
		t.Fatalf("rejected merge still mutated count: %d", h.Count())
	}
}
