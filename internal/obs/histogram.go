package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Log-bucketed histograms. Values are non-negative integers (typically
// nanoseconds or bytes) mapped to buckets of geometrically growing
// width: values below 16 get exact buckets, and every octave above that
// is split into 8 sub-buckets, bounding the relative quantile error at
// 12.5% while keeping the whole stripe a flat array — Observe is a
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

// HistStripe is one write stripe of a histogram family: single-writer,
// like Counter. The stripe is ~4KB, so padding between stripes is moot.
type HistStripe struct {
	count   uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// Observe records a value (negative values clamp to zero).
func (h *HistStripe) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += uint64(v)
	h.buckets[bucketOf(uint64(v))]++
}

// ObserveDuration records a duration in nanoseconds.
func (h *HistStripe) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistogramVec is a histogram family of single-writer stripes.
type HistogramVec struct {
	fam     *family
	mu      sync.Mutex
	stripes []*HistStripe
}

// Stripe returns stripe i, growing the family as needed.
func (v *HistogramVec) Stripe(i int) *HistStripe {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.stripes) <= i {
		v.stripes = append(v.stripes, &HistStripe{})
	}
	return v.stripes[i]
}

// HistSnap is a merged histogram: dense buckets plus precomputed
// summary quantiles (the log-bucket transform bounds their relative
// error at 12.5%).
type HistSnap struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets is the dense merged bucket array (internal resolution;
	// the Prometheus writer renders it cumulatively).
	Buckets []uint64 `json:"-"`
}

// Snap merges the family's stripes (atomic loads; exact at quiescence).
func (v *HistogramVec) Snap() *HistSnap {
	v.mu.Lock()
	stripes := make([]*HistStripe, len(v.stripes))
	copy(stripes, v.stripes)
	v.mu.Unlock()
	s := &HistSnap{Buckets: make([]uint64, histBuckets)}
	for _, h := range stripes {
		s.Count += atomic.LoadUint64(&h.count)
		s.Sum += atomic.LoadUint64(&h.sum)
		for i := range h.buckets {
			s.Buckets[i] += atomic.LoadUint64(&h.buckets[i])
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from the merged
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
