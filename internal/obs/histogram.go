package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed histograms. Values are non-negative integers (typically
// nanoseconds or bytes) mapped to buckets of geometrically growing
// width: values below 16 get exact buckets, and every octave above that
// is split into 8 sub-buckets, bounding the relative quantile error at
// 12.5% while keeping the whole histogram a flat array — Observe is a
// bounds-checked pair of increments, zero allocations, no atomics.

// histBuckets covers the full uint64 range at 8 sub-buckets per octave:
// 16 exact small-value buckets plus 60 octaves above 2^4.
const histBuckets = 16 + 60*8

// bucketOf maps a value to its bucket index (monotone in v).
func bucketOf(v uint64) int {
	if v < 16 {
		return int(v)
	}
	k := bits.Len64(v) // >= 5
	return int(k-4)*8 + int((v>>(uint(k)-4))&7) + 8
}

// bucketBounds returns the inclusive value range covered by bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < 16 {
		return uint64(i), uint64(i)
	}
	j := i - 16
	oct, sub := uint(j/8), uint64(j%8)
	width := uint64(2) << oct
	lo = (16 << oct) + sub*width
	return lo, lo + width - 1
}

// Histogram is a histogram family's storage. It has a single writer,
// which updates it with plain field ops; Snap reads it with atomic loads,
// exact when the writer is quiescent.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// Observe records a value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += uint64(v)
	h.buckets[bucketOf(uint64(v))]++
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistSnap is a histogram read at one instant: dense buckets plus
// precomputed summary quantiles (the log-bucket transform bounds their relative
// error at 12.5%).
type HistSnap struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets is the dense bucket array (internal resolution;
	// the Prometheus writer renders it cumulatively).
	Buckets []uint64 `json:"-"`
}

// Snap reads the histogram (atomic loads; exact at quiescence).
func (h *Histogram) Snap() *HistSnap {
	s := &HistSnap{Count: atomic.LoadUint64(&h.count), Sum: atomic.LoadUint64(&h.sum),
		Buckets: make([]uint64, histBuckets)}
	for i := range h.buckets {
		s.Buckets[i] = atomic.LoadUint64(&h.buckets[i])
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from the
// buckets: nearest-rank walk, answering the midpoint of the covering
// bucket (exact for values below 16).
func (s *HistSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum > rank {
			lo, hi := bucketBounds(i)
			return float64(lo+hi) / 2
		}
	}
	return 0
}
