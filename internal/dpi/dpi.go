// Package dpi implements the statistical traffic-analysis adversary:
// the ISP the paper's strawman classifier (ports, payload signatures,
// shim types — package isp) grows into once end-to-end encryption
// strips those fields. It fingerprints *flows*, not packets: a stateful
// tracker keyed on netem.FlowKey extracts windowed features — packet-
// size histogram buckets, inter-arrival mean and variation, burstiness,
// direction ratios — that survive encryption untouched, and a trained
// nearest-centroid classifier maps each flow to an application class
// (VoIP, video, bulk, web). Classified flows feed an enforcement stage
// with per-class token-bucket policing and probabilistic drop, the
// graded degradation real traffic-management boxes apply.
//
// The tracker sits on the forwarding hot path (a netem.TransitHook runs
// on every packet a transit router sees), so the per-packet feature
// update is allocation-free: the flow table is a preallocated slab
// indexed by a map on the comparable FlowKey value, features are fixed-
// size arithmetic state, and classification is a weighted distance over
// stack arrays. TestObserveExistingFlowZeroAlloc enforces 0 allocs per
// packet; memory is bounded at 10 240 flows per table with clock-sweep
// eviction of idle flows.
//
// Package cloak is the counter to this adversary; eval's E7 experiment
// runs the arms race between them at metro scale.
package dpi

import "math"

// Class is an application class label assigned to a flow.
type Class uint8

// Flow classes. ClassUnknown marks flows not yet (or never) classified.
const (
	ClassUnknown Class = iota
	ClassVoIP
	ClassVideo
	ClassBulk
	ClassWeb
)

// NumClasses is the number of real (non-Unknown) classes.
const NumClasses = 4

var classNames = [...]string{"unknown", "voip", "video", "bulk", "web"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// NumSizeBuckets is the number of packet-size histogram buckets.
const NumSizeBuckets = 8

// sizeBucketEdges are the exclusive upper bounds of the first seven
// buckets (wire bytes); the last bucket is open-ended. Edges are placed
// so that the same application payload lands in the same bucket whether
// it rides plain UDP (+28 bytes of headers) or the neutralizer shim
// (+52): the classifier must not key on encapsulation overhead.
var sizeBucketEdges = [NumSizeBuckets - 1]int{128, 256, 384, 640, 896, 1152, 1408}

func sizeBucket(size int) int {
	for i, e := range sizeBucketEdges {
		if size < e {
			return i
		}
	}
	return NumSizeBuckets - 1
}

// FeatureDim is the length of a flow's feature vector: size-histogram
// fractions, then mean inter-arrival (log scale), inter-arrival
// coefficient of variation, burst fraction, mean packet size, and
// forward-direction ratio.
const FeatureDim = NumSizeBuckets + 5

// Features is the windowed per-flow statistical state. All updates are
// in-place arithmetic on fixed-size fields — no allocation. Welford's
// algorithm tracks inter-arrival mean/variance; once the packet count
// reaches twice windowPkts every counter is halved, which turns the
// totals into an exponentially decayed window so long flows track their
// recent behavior.
type Features struct {
	Pkts  uint64
	Bytes uint64
	Hist  [NumSizeBuckets]uint32
	// FwdPkts counts packets traveling Lo→Hi of the canonical flow key,
	// RevPkts the opposite direction.
	FwdPkts, RevPkts uint64

	lastNanos int64
	iatCount  float64
	iatMean   float64 // nanoseconds
	iatM2     float64
	smallGaps float64 // inter-arrivals below the burst gap
}

// Update folds one packet into the flow state.
func (f *Features) Update(size int, forward bool, nowNanos int64) {
	f.Pkts++
	f.Bytes += uint64(size)
	f.Hist[sizeBucket(size)]++
	if forward {
		f.FwdPkts++
	} else {
		f.RevPkts++
	}
	if f.lastNanos != 0 {
		gap := float64(nowNanos - f.lastNanos)
		if gap < 0 {
			gap = 0
		}
		f.iatCount++
		d := gap - f.iatMean
		f.iatMean += d / f.iatCount
		f.iatM2 += d * (gap - f.iatMean)
		if gap < float64(burstGap) {
			f.smallGaps++
		}
	}
	f.lastNanos = nowNanos
	if f.Pkts >= 2*windowPkts {
		f.decay()
	}
}

// decay halves every counter, aging the window exponentially. The
// inter-arrival mean is a ratio and survives unscaled.
func (f *Features) decay() {
	f.Pkts /= 2
	f.Bytes /= 2
	f.FwdPkts /= 2
	f.RevPkts /= 2
	for i := range f.Hist {
		f.Hist[i] /= 2
	}
	f.iatCount /= 2
	f.iatM2 /= 2
	f.smallGaps /= 2
}

// LastSeenNanos reports the arrival time of the flow's latest packet.
func (f *Features) LastSeenNanos() int64 { return f.lastNanos }

// Vector writes the normalized feature vector into out (all components
// in [0,1]); it allocates nothing so classification can run per packet.
func (f *Features) Vector(out *[FeatureDim]float64) {
	*out = [FeatureDim]float64{}
	if f.Pkts == 0 {
		return
	}
	pk := float64(f.Pkts)
	for i, h := range f.Hist {
		out[i] = float64(h) / pk
	}
	i := NumSizeBuckets
	if f.iatCount > 0 && f.iatMean > 0 {
		// Mean inter-arrival on a log scale: 10µs → 0, 10s → 1.
		out[i] = clamp01((math.Log10(f.iatMean) - 4) / 6)
		if f.iatCount > 1 {
			sd := math.Sqrt(f.iatM2 / f.iatCount)
			out[i+1] = clamp01(sd / f.iatMean / 3) // CV clipped at 3
		}
		out[i+2] = f.smallGaps / f.iatCount
	}
	out[i+3] = clamp01(float64(f.Bytes) / pk / 1500)
	out[i+4] = float64(f.FwdPkts) / pk
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
