// Package obs is the observability layer of the system: lock-cheap
// log-bucketed latency histograms (per-method tail percentiles), request
// traces with span timings and a ring buffer of recent slow or errored
// requests, and the debug HTTP surface (JSON metrics + pprof) the server
// exposes behind -debug-addr. Every later scaling PR measures against
// the numbers this package produces.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values below 16ns get an exact bucket each;
// above that, each power-of-two octave splits into 16 linear sub-buckets,
// so any recorded duration lands in a bucket whose bounds are within
// 1/16 (≈6%) of its true value. Durations are recorded in nanoseconds;
// 60 octaves cover everything an int64 duration can hold.
const (
	histSubBuckets = 16
	histBuckets    = 16 * 61 // exact low buckets + 60 octaves
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	h := bits.Len64(v) - 1 // position of the highest set bit, >= 4
	sub := (v >> (uint(h) - 4)) & (histSubBuckets - 1)
	i := (h-3)*histSubBuckets + int(sub)
	if i >= histBuckets {
		return histBuckets - 1 // overflow: clamp to the last bucket
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds (the value quantile estimation reports).
func bucketUpper(i int) uint64 {
	if i < histSubBuckets {
		return uint64(i)
	}
	g := i / histSubBuckets // octave group, >= 1
	sub := uint64(i % histSubBuckets)
	// Lower bound is (16+sub) << (g-1); the bucket spans 1<<(g-1) values.
	return (histSubBuckets+sub+1)<<(uint(g)-1) - 1
}

// Histogram is a fixed-size log-bucketed latency histogram. Observe is
// lock-free (one atomic add per bucket counter plus a CAS loop for the
// max), so it sits directly on the request hot path; snapshots copy the
// bucket array and derive quantiles offline. The zero value is NOT ready
// to use — call NewHistogram (the bucket array would be, but keeping
// construction explicit leaves room for options later).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the histogram's state for offline quantile queries.
// Concurrent Observes may straddle the copy; the snapshot is a consistent
// enough view for monitoring (counts never decrease).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	s.buckets = make([]uint64, histBuckets)
	var n uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.buckets[i] = c
		n += c
	}
	// The bucket array is the authoritative total for quantile walks (the
	// three scalar counters above may lag it by in-flight Observes).
	s.total = n
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count uint64
	Sum   time.Duration
	Max   time.Duration

	total   uint64
	buckets []uint64
}

// Mean returns the average observed duration (0 with no observations).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// durations: the upper bound of the bucket holding the q·count-th
// observation, clamped to the observed maximum (so Quantile(1) == Max).
// With no observations it returns 0; q outside (0,1] clamps.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the q-quantile is observation ⌈q·n⌉ (1-based).
	rank := uint64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.buckets {
		seen += c
		if seen >= rank {
			d := time.Duration(bucketUpper(i))
			if d > s.Max {
				d = s.Max
			}
			return d
		}
	}
	return s.Max
}

// String renders the snapshot's summary line.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99), s.Max)
}
