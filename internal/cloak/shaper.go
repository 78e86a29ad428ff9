package cloak

import (
	"math"
	"time"
)

// Clock is the scheduling surface a Shaper runs on; *netem.Simulator
// satisfies it, as does any event loop with a virtual clock.
type Clock interface {
	Now() time.Time
	Schedule(d time.Duration, fn func())
}

// Tick is the grid frame releases are quantized to, one frame per tick:
// constant-rate output above every app's peak rate.
const Tick = 2500 * time.Microsecond

// Stats is the measured cost of cloaking: the goodput and latency the
// countermeasure spends to buy indistinguishability.
type Stats struct {
	// RealBytes is application payload accepted; WireBytes is what left
	// the shaper (padding + cover included).
	RealBytes, WireBytes uint64
	// Frames counts payload-carrying frames; CoverFrames padding-only
	// ones.
	Frames, CoverFrames uint64
	// QueueDelaySum accumulates time payloads waited for their tick.
	QueueDelaySum time.Duration
	// MaxQueue is the deepest the pending queue got.
	MaxQueue int
}

// Overhead is wire bytes per real byte (1.0 = free; padding and cover
// push it up). A cover-only run that carried no real bytes is
// infinitely expensive by this measure and reports +Inf.
func (s Stats) Overhead() float64 {
	if s.RealBytes == 0 {
		if s.WireBytes == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(s.WireBytes) / float64(s.RealBytes)
}

// AvgDelay is the mean added latency per payload frame.
func (s Stats) AvgDelay() time.Duration {
	if s.Frames == 0 {
		return 0
	}
	return s.QueueDelaySum / time.Duration(s.Frames)
}

// Shaper cloaks a stream of payloads, emitting padded frames on the
// tick grid and cover frames on idle ticks while it runs. It is
// single-goroutine like the event loops it runs on.
type Shaper struct {
	clk     Clock
	emit    func(frame []byte)
	pending []pendingPayload
	free    [][]byte // recycled payload buffers
	buf     []byte   // reused frame encode buffer

	ticking bool
	until   time.Time // cover traffic runs while now < until
	stats   Stats
}

type pendingPayload struct {
	data []byte
	at   time.Time
}

// NewShaper creates a shaper that emits wire frames through emit (the
// frame slice is reused between emissions: consume or copy it within
// the call, the contract packet pools already impose).
func NewShaper(clk Clock, emit func(frame []byte)) *Shaper {
	return &Shaper{clk: clk, emit: emit}
}

// Run keeps the tick grid and cover traffic alive for d from now,
// independent of payload arrivals.
func (s *Shaper) Run(d time.Duration) {
	if t := s.clk.Now().Add(d); t.After(s.until) {
		s.until = t
	}
	s.armTick()
}

// Send queues one application payload for the next free tick.
func (s *Shaper) Send(payload []byte) {
	s.stats.RealBytes += uint64(len(payload))
	buf := s.getBuf(len(payload))
	copy(buf, payload)
	s.pending = append(s.pending, pendingPayload{data: buf, at: s.clk.Now()})
	if len(s.pending) > s.stats.MaxQueue {
		s.stats.MaxQueue = len(s.pending)
	}
	s.armTick()
}

// Stats returns the accumulated cost counters.
func (s *Shaper) Stats() Stats { return s.stats }

// armTick schedules the next tick if none is pending, aligned to the
// tick grid (absolute-time quantization, not send-relative).
func (s *Shaper) armTick() {
	if s.ticking {
		return
	}
	now := s.clk.Now()
	next := now.Truncate(Tick).Add(Tick)
	s.ticking = true
	s.clk.Schedule(next.Sub(now), s.tick)
}

// tick releases the oldest queued frame, or a cover frame on an idle
// tick, then re-arms while there is queued work or cover to keep up.
func (s *Shaper) tick() {
	s.ticking = false
	now := s.clk.Now()
	if len(s.pending) == 0 {
		if now.Before(s.until) {
			s.emitCover()
		}
	} else {
		p := s.pending[0]
		s.stats.QueueDelaySum += now.Sub(p.at)
		s.emitPayload(p.data)
		s.free = append(s.free, p.data[:0])
		s.pending[0] = pendingPayload{}
		s.pending = append(s.pending[:0], s.pending[1:]...)
	}
	if len(s.pending) > 0 || now.Before(s.until) {
		s.armTick()
	}
}

func (s *Shaper) emitPayload(payload []byte) {
	s.buf = AppendFrame(s.buf[:0], payload)
	s.stats.WireBytes += uint64(len(s.buf))
	s.stats.Frames++
	s.emit(s.buf)
}

func (s *Shaper) emitCover() {
	s.buf = AppendCover(s.buf[:0])
	s.stats.WireBytes += uint64(len(s.buf))
	s.stats.CoverFrames++
	s.emit(s.buf)
}

// getBuf returns an n-byte buffer, reusing released ones.
func (s *Shaper) getBuf(n int) []byte {
	for i := len(s.free) - 1; i >= 0; i-- {
		b := s.free[i]
		if cap(b) >= n {
			s.free = append(s.free[:i], s.free[i+1:]...)
			return b[:n]
		}
	}
	return make([]byte, n)
}
