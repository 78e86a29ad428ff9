// Package measure provides the instrumentation used by experiments:
// latency histograms with quantiles, a loss counter, rank and
// distribution tests, and a simplified ITU-T G.107 E-model that converts
// delay and loss into a VoIP MOS score (how the Vonage-degradation story
// of the paper's introduction is quantified).
package measure

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// DefaultMaxSamples is the histogram's reservoir bound: below
// it every sample is kept and quantiles are exact; above it Add switches
// to uniform reservoir sampling so memory stays capped no matter how
// many samples a metro-scale flow records.
const DefaultMaxSamples = 8192

// Histogram collects duration samples and answers quantile queries.
// The zero value is ready to use. Count, Mean and Max are always exact;
// quantiles are exact up to the sample bound (DefaultMaxSamples) and
// computed over a uniform reservoir beyond it.
type Histogram struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
	max     time.Duration
	added   uint64
	rng     uint64
}

// Add records a sample.
func (h *Histogram) Add(d time.Duration) {
	h.added++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < DefaultMaxSamples {
		h.samples = append(h.samples, d)
		h.sorted = false
		return
	}
	// Reservoir sampling (Vitter's algorithm R): keep the new sample
	// with probability bound/added, replacing a uniform victim. The
	// xorshift stream is deterministically seeded, so seeded experiment
	// replays stay bit-identical.
	if j := h.nextRand() % h.added; j < uint64(len(h.samples)) {
		h.samples[j] = d
		h.sorted = false
	}
}

// nextRand advances the histogram's private xorshift64* state.
func (h *Histogram) nextRand() uint64 {
	if h.rng == 0 {
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng * 0x2545F4914F6CDD1D
}

// Count returns the number of samples recorded (not the reservoir size).
func (h *Histogram) Count() int { return int(h.added) }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.added == 0 {
		return 0
	}
	return h.sum / time.Duration(h.added)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank, or 0
// with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// MOS computes a simplified E-model (ITU-T G.107) mean opinion score for
// a G.711 call with the given one-way mouth-to-ear delay and packet loss
// ratio (0..1). Returns a value in [1, 4.5]: below ~3.5 users complain;
// the paper's targeted-degradation scenario drives a competitor's VoIP
// below that threshold while the ISP's own service stays high.
func MOS(oneWayDelay time.Duration, loss float64) float64 {
	d := float64(oneWayDelay.Milliseconds())
	// Delay impairment Id.
	id := 0.024*d + 0.11*(d-177.3)*heaviside(d-177.3)
	// Equipment impairment Ie-eff for G.711 with packet-loss concealment:
	// Ie = 0, Bpl = 25.1 (G.113 Appendix I).
	const bpl = 25.1
	ppl := loss * 100
	ieEff := 0 + (95-0)*ppl/(ppl+bpl)
	r := 93.2 - id - ieEff
	return rToMOS(r)
}

func heaviside(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

func rToMOS(r float64) float64 {
	if r < 0 {
		return 1
	}
	if r > 100 {
		r = 100
	}
	mos := 1 + 0.035*r + r*(r-60)*(100-r)*7e-6
	if mos < 1 {
		return 1
	}
	if mos > 4.5 {
		return 4.5
	}
	return mos
}

// LossCounter tracks delivered vs. expected packets.
type LossCounter struct {
	Sent     uint64
	Received uint64
}

// Loss returns the loss ratio in [0,1].
func (l *LossCounter) Loss() float64 {
	if l.Sent == 0 {
		return 0
	}
	if l.Received >= l.Sent {
		return 0
	}
	return float64(l.Sent-l.Received) / float64(l.Sent)
}
