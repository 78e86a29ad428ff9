// Package multihome implements §3.5: a site connected to multiple ISPs
// publishes one neutralizer address per provider in its DNS records, and
// the ISP-level path of its traffic is decided by how *sources* pick
// among those addresses — the same situation as IPv6 multi-address
// selection (RFC 3484), which the paper cites.
//
// A Selector owns the candidate list and a Strategy. Strategies range
// from naive (static, round-robin) to feedback-driven (latency-weighted,
// and the paper's closing suggestion that "two hosts may always use
// trial-and-error to find a path that's working for them").
package multihome

import (
	"errors"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// ErrNoCandidates is returned when the selector has nothing to pick from.
var ErrNoCandidates = errors.New("multihome: no candidate neutralizers")

// Strategy picks one of the candidate service addresses and learns from
// feedback.
type Strategy interface {
	// Pick chooses among candidates (never empty).
	Pick(candidates []netip.Addr) netip.Addr
	// Feedback reports the outcome of using addr: success and observed
	// round-trip time (0 if unknown).
	Feedback(addr netip.Addr, ok bool, rtt time.Duration)
	// Name identifies the strategy in experiment output.
	Name() string
}

// Static always picks the first candidate (what a naive resolver does
// with the first record).
type Static struct{}

// Pick implements Strategy.
func (Static) Pick(c []netip.Addr) netip.Addr { return c[0] }

// Feedback implements Strategy.
func (Static) Feedback(netip.Addr, bool, time.Duration) {}

// Name implements Strategy.
func (Static) Name() string { return "static" }

// RoundRobin cycles through candidates, spreading load evenly.
type RoundRobin struct {
	mu sync.Mutex
	i  int
}

// Pick implements Strategy.
func (r *RoundRobin) Pick(c []netip.Addr) netip.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := c[r.i%len(c)]
	r.i++
	return a
}

// Feedback implements Strategy.
func (*RoundRobin) Feedback(netip.Addr, bool, time.Duration) {}

// Name implements Strategy.
func (*RoundRobin) Name() string { return "round-robin" }

// Weighted picks proportionally to the inverse of each candidate's
// smoothed RTT (latency-probing load balance, the "borrow any technique
// that can balance traffic load in that context" remedy).
type Weighted struct {
	mu  sync.Mutex
	rtt map[netip.Addr]float64 // smoothed, seconds
	rng *rand.Rand
}

// weightedSeed seeds every Weighted strategy's RNG, so a run replays.
const weightedSeed = 5

// NewWeighted creates a latency-weighted strategy.
func NewWeighted() *Weighted {
	return &Weighted{rtt: make(map[netip.Addr]float64), rng: rand.New(rand.NewSource(weightedSeed))}
}

// Pick implements Strategy.
func (w *Weighted) Pick(c []netip.Addr) netip.Addr {
	w.mu.Lock()
	defer w.mu.Unlock()
	weights := make([]float64, len(c))
	total := 0.0
	for i, a := range c {
		r, ok := w.rtt[a]
		if !ok || r <= 0 {
			r = 0.010 // optimistic prior: 10ms
		}
		weights[i] = 1 / r
		total += weights[i]
	}
	x := w.rng.Float64() * total
	for i, wt := range weights {
		if x < wt {
			return c[i]
		}
		x -= wt
	}
	return c[len(c)-1]
}

// Feedback implements Strategy (EWMA with alpha 1/4; failures count as a
// 1-second RTT so the candidate is deprioritized but not banned).
func (w *Weighted) Feedback(addr netip.Addr, ok bool, rtt time.Duration) {
	sample := rtt.Seconds()
	if !ok {
		sample = 1.0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	old, seen := w.rtt[addr]
	if !seen {
		w.rtt[addr] = sample
		return
	}
	w.rtt[addr] = old + (sample-old)/4
}

// Name implements Strategy.
func (*Weighted) Name() string { return "latency-weighted" }

// TrialAndError sticks with a working candidate and moves to the next on
// failure — the paper's final fallback.
type TrialAndError struct {
	mu      sync.Mutex
	current netip.Addr
	failed  map[netip.Addr]bool
}

// NewTrialAndError creates the strategy.
func NewTrialAndError() *TrialAndError {
	return &TrialAndError{failed: make(map[netip.Addr]bool)}
}

// Pick implements Strategy: the sticky current choice if it has not
// failed, else the first non-failed candidate (wrapping to forgive all
// failures if every candidate failed).
func (t *TrialAndError) Pick(c []netip.Addr) netip.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.current.IsValid() && !t.failed[t.current] && contains(c, t.current) {
		return t.current
	}
	for _, a := range c {
		if !t.failed[a] {
			t.current = a
			return a
		}
	}
	// Everything failed: forgive and retry from the top.
	t.failed = make(map[netip.Addr]bool)
	t.current = c[0]
	return c[0]
}

// Feedback implements Strategy.
func (t *TrialAndError) Feedback(addr netip.Addr, ok bool, _ time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		delete(t.failed, addr)
		t.current = addr
	} else {
		t.failed[addr] = true
	}
}

// Name implements Strategy.
func (*TrialAndError) Name() string { return "trial-and-error" }

func contains(c []netip.Addr, a netip.Addr) bool {
	for _, x := range c {
		if x == a {
			return true
		}
	}
	return false
}

// Selector binds a candidate list (from a site's DNS record) to a
// strategy.
type Selector struct {
	mu         sync.Mutex
	candidates []netip.Addr
	strategy   Strategy
}

// NewSelector creates a selector. It returns ErrNoCandidates for an empty
// candidate list.
func NewSelector(candidates []netip.Addr, s Strategy) (*Selector, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	if s == nil {
		s = Static{}
	}
	cp := make([]netip.Addr, len(candidates))
	copy(cp, candidates)
	return &Selector{candidates: cp, strategy: s}, nil
}

// Pick chooses the neutralizer for the next connection attempt.
func (s *Selector) Pick() netip.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.strategy.Pick(s.candidates)
}

// Feedback reports the outcome of the last use of addr.
func (s *Selector) Feedback(addr netip.Addr, ok bool, rtt time.Duration) {
	s.strategy.Feedback(addr, ok, rtt)
}
