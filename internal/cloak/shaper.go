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

// Config sets the cloaking knobs and, implicitly, the cost each pays.
type Config struct {
	// SizeBuckets are the ascending frame sizes payloads are padded to.
	// One large bucket is the strongest setting (every frame identical)
	// and the most expensive in goodput.
	SizeBuckets []int
	// Tick quantizes frame release times to a fixed grid; zero sends
	// immediately (padding-only cloaking).
	Tick time.Duration
	// PerTick caps frames released per tick (default 1 — constant-rate
	// output; larger values batch queued frames, trading uniformity for
	// latency).
	PerTick int
	// Cover emits a padding-only frame on each idle tick while the
	// shaper runs, making silence indistinguishable from talk.
	Cover bool
	// CoverSize is the cover frame's wire size (default: largest
	// bucket).
	CoverSize int
}

func (c *Config) fill() {
	if c.PerTick <= 0 {
		c.PerTick = 1
	}
	if c.CoverSize <= 0 {
		if n := len(c.SizeBuckets); n > 0 {
			c.CoverSize = c.SizeBuckets[n-1]
		} else {
			c.CoverSize = FrameOverhead
		}
	}
}

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

// Shaper applies the configured cloaking to a stream of payloads,
// emitting padded frames on the tick grid. It is single-goroutine like
// the event loops it runs on.
type Shaper struct {
	cfg     Config
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
func NewShaper(cfg Config, clk Clock, emit func(frame []byte)) *Shaper {
	cfg.fill()
	return &Shaper{cfg: cfg, clk: clk, emit: emit}
}

// Run keeps the tick grid (and cover traffic, if configured) alive for
// d from now, independent of payload arrivals.
func (s *Shaper) Run(d time.Duration) {
	if t := s.clk.Now().Add(d); t.After(s.until) {
		s.until = t
	}
	if s.cfg.Tick > 0 {
		s.armTick()
	}
}

// Send accepts one application payload. With no Tick it is framed and
// emitted immediately; otherwise it queues for the next tick.
func (s *Shaper) Send(payload []byte) {
	s.stats.RealBytes += uint64(len(payload))
	if s.cfg.Tick <= 0 {
		s.emitPayload(payload)
		return
	}
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
	if s.ticking || s.cfg.Tick <= 0 {
		return
	}
	now := s.clk.Now()
	next := now.Truncate(s.cfg.Tick).Add(s.cfg.Tick)
	s.ticking = true
	s.clk.Schedule(next.Sub(now), s.tick)
}

// tick releases up to PerTick queued frames, or a cover frame on an
// idle tick, then re-arms while there is queued work or cover to keep
// up.
func (s *Shaper) tick() {
	s.ticking = false
	now := s.clk.Now()
	if len(s.pending) == 0 {
		if s.cfg.Cover && now.Before(s.until) {
			s.emitCover()
		}
	} else {
		n := s.cfg.PerTick
		if n > len(s.pending) {
			n = len(s.pending)
		}
		for i := 0; i < n; i++ {
			p := s.pending[i]
			s.stats.QueueDelaySum += now.Sub(p.at)
			s.emitPayload(p.data)
			s.free = append(s.free, p.data[:0])
			s.pending[i] = pendingPayload{}
		}
		s.pending = append(s.pending[:0], s.pending[n:]...)
	}
	if len(s.pending) > 0 || (s.cfg.Cover && now.Before(s.until)) {
		s.armTick()
	}
}

func (s *Shaper) emitPayload(payload []byte) {
	s.buf = AppendFrame(s.buf[:0], payload, s.cfg.SizeBuckets)
	s.stats.WireBytes += uint64(len(s.buf))
	s.stats.Frames++
	s.emit(s.buf)
}

func (s *Shaper) emitCover() {
	s.buf = AppendCover(s.buf[:0], s.cfg.CoverSize)
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
