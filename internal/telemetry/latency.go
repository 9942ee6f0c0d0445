package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// A LatencyHistogram accumulates non-negative int64 values into fixed
// log-linear buckets and answers percentile queries (p50/p99/p999/max)
// without ever locking or allocating on the record path. It is the
// package's only histogram: latencies in nanoseconds, but also element
// counts and similarity values in parts per million. The family's
// suffix names the unit (_ns, _elements, _ppm); the _ns in the
// snapshot's JSON field names is historical and holds whatever unit the
// family records.
//
// Bucket layout (HDR-histogram style): values below subCount land in
// their own exact bucket; above that, each power-of-two octave is split
// into subCount linear sub-buckets, bounding the relative error of any
// readout at 1/subCount (6.25%) — plenty for percentiles, where the
// interesting signal is orders of magnitude, not units.
//
// Everything is a plain atomic add except the max, which CASes only when
// a new observation actually exceeds it (rare in steady state). All
// methods are safe on a nil receiver, so "tracing disabled" is a nil
// pointer and one branch per record.
type LatencyHistogram struct {
	buckets [latBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

const (
	latSubBits = 4
	latSubCnt  = 1 << latSubBits // 16 sub-buckets per octave
	// 63 significant bits, minus the latSubBits exact low octaves, each
	// remaining octave split latSubCnt ways, plus the exact low buckets.
	latBuckets = (63 - latSubBits + 1) * latSubCnt
)

// latBucketFor maps a value to its bucket index. Negative values clamp
// to bucket zero.
func latBucketFor(v int64) int {
	if v < latSubCnt {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e <= v < 2^(e+1), e >= latSubBits
	sub := int(v>>(uint(e)-latSubBits)) & (latSubCnt - 1)
	i := (e-latSubBits+1)*latSubCnt + sub
	if i >= latBuckets {
		return latBuckets - 1
	}
	return i
}

// latBucketUpper returns the inclusive upper bound of a bucket: the
// largest value that maps to index i.
func latBucketUpper(i int) int64 {
	if i < latSubCnt {
		return int64(i)
	}
	e := i/latSubCnt + latSubBits - 1
	sub := int64(i%latSubCnt) + latSubCnt
	return (sub+1)<<(uint(e)-latSubBits) - 1
}

// NewLatencyHistogram builds a free-standing latency histogram. Most
// callers obtain one from a Registry.
func NewLatencyHistogram() *LatencyHistogram { return &LatencyHistogram{} }

// Observe records one value. Safe on a nil receiver.
func (h *LatencyHistogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[latBucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveSince records the time elapsed since start.
func (h *LatencyHistogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations (zero on nil).
func (h *LatencyHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of the observed values (zero on nil).
func (h *LatencyHistogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation (zero on nil or before any).
func (h *LatencyHistogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// recorded values: the inclusive upper edge of the bucket holding the
// rank-q observation, within the histogram's 6.25% relative resolution.
// Zero before any observation or on a nil receiver.
func (h *LatencyHistogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < latBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			// The max is an exact upper bound; never report past it.
			if m := h.max.Load(); i == latBuckets-1 || latBucketUpper(i) > m {
				return m
			}
			return latBucketUpper(i)
		}
	}
	return h.max.Load()
}

// A LatencySummary is one histogram's percentile readout.
type LatencySummary struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	P50   int64 `json:"p50_ns"`
	P90   int64 `json:"p90_ns"`
	P99   int64 `json:"p99_ns"`
	P999  int64 `json:"p999_ns"`
	Max   int64 `json:"max_ns"`
}

// Summary reads the standard percentile set. Individual loads are
// atomic; the summary is not a cross-quantile transaction, which
// observability reads do not need.
func (h *LatencyHistogram) Summary() LatencySummary {
	if h == nil {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count(),
		SumNS: h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
