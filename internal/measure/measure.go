// Package measure provides the instrumentation used by experiments: a
// latency mean, a loss counter, rank and distribution tests, and a
// simplified ITU-T G.107 E-model that converts delay and loss into a
// VoIP MOS score (how the Vonage-degradation story of the paper's
// introduction is quantified).
package measure

import "time"

// Histogram accumulates duration samples for their mean. The zero
// value is ready to use.
type Histogram struct {
	sum time.Duration
	n   int64
}

// Add records a sample.
func (h *Histogram) Add(d time.Duration) {
	h.sum += d
	h.n++
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
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
