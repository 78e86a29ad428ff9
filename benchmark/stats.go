//go:build linux

package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// counts), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantileInt32 is quantile over raw nanosecond samples; it sorts xs in
// place (the latency sample buffers are large and not reused).
func quantileInt32(xs []int32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[int(q*float64(len(xs)-1))])
}

// perOp is d per operation, in nanoseconds.
func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// pctDiff is (b-a)/a in percent.
func pctDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
