package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the shared fixed histogram upper bounds in
// seconds, used by the server's /metrics exposition and by the
// fleet-wide merge in /v1/cluster/status, which needs every node's
// histograms on one layout. The low end resolves µs-scale warm hybrid
// queries, the high end cold engine builds.
var LatencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram with atomic counters;
// the extra slot is the +Inf overflow bucket. Observe is lock-free.
// The zero value is ready to use.
type Histogram struct {
	counts [len(LatencyBuckets) + 1]atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(LatencyBuckets[:], s)
	h.counts[i].Add(1)
	h.count.Add(1)
	ns := d.Nanoseconds()
	h.sumNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Max returns the exact largest sample observed (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// BucketCounts returns the per-bucket sample counts (len(LatencyBuckets)+1
// entries; the last is the +Inf overflow).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// HistogramSnapshot is the wire form of a Histogram: a point-in-time
// copy whose bucket layout is the shared LatencyBuckets. It is what
// nodes exchange for fleet-wide aggregation (/v1/cluster/status).
type HistogramSnapshot struct {
	// Buckets has len(LatencyBuckets)+1 entries; the last is +Inf.
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	MaxNs   int64   `json:"max_ns"`
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may straddle the copy (bucket totals are each atomically read but
// not mutually consistent); for aggregation that slack is irrelevant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: h.BucketCounts(),
		Count:   h.count.Load(),
		SumNs:   h.sumNs.Load(),
		MaxNs:   h.maxNs.Load(),
	}
	return s
}

// MergeSnapshot folds a snapshot (typically from a peer node) into h.
// Because both share the fixed LatencyBuckets layout, the merged
// histogram's Quantile is exactly what a single histogram fed the
// pooled samples would report, and Max is preserved exactly (not
// bucket-rounded). Snapshots with a foreign bucket layout are
// rejected (returns false, h unchanged) so a mixed-version fleet
// degrades to "node reported, not merged" instead of corrupting fleet
// quantiles.
func (h *Histogram) MergeSnapshot(s HistogramSnapshot) bool {
	if len(s.Buckets) != len(h.counts) {
		return false
	}
	for i, c := range s.Buckets {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(s.Count)
	h.sumNs.Add(s.SumNs)
	for {
		old := h.maxNs.Load()
		if s.MaxNs <= old || h.maxNs.CompareAndSwap(old, s.MaxNs) {
			break
		}
	}
	return true
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the containing bucket, the same estimator
// Prometheus' histogram_quantile uses. Samples in the overflow bucket
// are attributed to the exact observed Max. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(LatencyBuckets) {
			return h.Max()
		}
		lo := 0.0
		if i > 0 {
			lo = LatencyBuckets[i-1]
		}
		hi := LatencyBuckets[i]
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return time.Duration((lo + (hi-lo)*frac) * 1e9)
	}
	return h.Max()
}
