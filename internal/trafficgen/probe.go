package trafficgen

import (
	"math/rand"
	"time"

	"netneutral/internal/netem"
)

// ControlSource emits the auditor's control flow: same path, protocol
// and encapsulation as a suspect application flow, but a shape no
// trained DPI profile targets — uniformly mixed packet sizes released
// at memoryless (exponential) gaps, so there is no constant-rate
// cadence, no burst structure, and no dominant size bucket for a
// nearest-centroid classifier to latch onto. A differential between
// this flow and an app-shaped suspect flow over the same path is
// evidence the network treats the *shape* differently (see
// internal/audit).
type ControlSource struct {
	// Rng supplies per-flow jitter (required for distinct flows; nil
	// falls back to the simulator's PRNG).
	Rng *rand.Rand
	// MeanGap is the average inter-emission gap (default 25ms).
	MeanGap time.Duration
	// MinSize/MaxSize bound the uniform payload-size draw (defaults
	// 300/1300 bytes).
	MinSize, MaxSize int
}

// state applies the defaults and binds the flow's rng.
func (s ControlSource) state(on netem.Context) *controlState {
	if s.MeanGap <= 0 {
		s.MeanGap = 25 * time.Millisecond
	}
	if s.MinSize <= 0 {
		s.MinSize = 300
	}
	if s.MaxSize <= s.MinSize {
		s.MaxSize = s.MinSize + 1000
	}
	rng := s.Rng
	if rng == nil {
		rng = on.Rand()
	}
	return &controlState{ControlSource: s, rng: rng}
}

// Run schedules control emissions for duration d; emit receives the
// per-flow sequence number and the payload size in bytes.
func (s ControlSource) Run(on netem.Context, d time.Duration, emit func(seq uint64, size int)) {
	st := s.state(on)
	end := on.Now().Add(d)
	drive(on, st.gap(), st, func(uint64) bool { return on.Now().After(end) }, emit)
}

// RunN schedules a finite burst of exactly n control emissions — the
// naive audit strategy's short-lived probe flows.
func (s ControlSource) RunN(on netem.Context, n int, emit func(seq uint64, size int)) {
	st := s.state(on)
	drive(on, st.gap(), st, func(seq uint64) bool { return seq >= uint64(n) }, emit)
}

// controlState produces a control flow's (size, gap) sequence.
type controlState struct {
	ControlSource
	rng *rand.Rand
}

// size draws a uniform payload size in [MinSize, MaxSize).
func (st *controlState) size() int {
	return st.MinSize + st.rng.Intn(st.MaxSize-st.MinSize)
}

// gap draws an exponential inter-emission gap with mean MeanGap.
func (st *controlState) gap() time.Duration {
	return time.Duration(expRand(st.rng, 1/st.MeanGap.Seconds()) * float64(time.Second))
}
