package netem

import (
	"fmt"
	"slices"
	"time"
)

// Fluid background traffic: the hybrid abstraction that lets a
// continental backbone carry realistic load without simulating every
// background packet. A FluidFlow models an aggregate (the thousands of
// intra-metro flows that are not being measured) as a piecewise-constant
// bit rate on one link direction. Packet serialization on that direction
// runs at the residual rate, which the flow writes into the direction's
// rate at Start, at each tick and at its horizon (offer), so policing,
// token buckets, and queues on the measured path see the load — while
// the event count per simulated second is one rate-update tick per
// interval instead of millions of packet events.
//
// Fidelity boundary, explicitly: fluid traffic consumes link capacity
// and therefore inflates the serialization (and hence queueing) delay of
// real packets sharing the direction, but it does not traverse transit
// hooks — DPI, per-packet policing, eavesdropping, and delivery counts
// never see it, and it cannot itself be dropped or reordered. Paths
// being measured or audited must carry real packets.
//
// Determinism: ticks are events on the shard that owns the link
// direction, and jitter draws from that shard's seeded PRNG, so a fluid
// run replays bit-identically at any worker count. Each flow tallies its
// own bytes and ticks; the netem_fluid_* registry families sum them, and
// the eval harness's ObsDigest folds them into its replay-identity hash.
type FluidConfig struct {
	// RateBps is the mean offered load in bits per second (required).
	RateBps float64
	// JitterFrac, in [0,1), re-draws each interval's rate uniformly in
	// RateBps·(1±JitterFrac) from the owning shard's PRNG. Zero holds
	// the rate constant.
	JitterFrac float64
	// Interval is the rate-update period (default 100ms). Shorter
	// intervals track jitter faster at more events per simulated second.
	Interval time.Duration
}

// FluidFlow is one attached background aggregate. Attach with
// Simulator.AttachFluid, then Start it for a bounded duration.
type FluidFlow struct {
	d    *linkDir
	node *Node
	cfg  FluidConfig
	// line is d's configured rate; load the rate offered this interval,
	// 0 before Start and after the horizon.
	line, load float64
	until      int64   // horizon, engine nanoseconds
	rem        float64 // fractional byte carry between ticks
	tickFn     func()  // tick, bound once: each f.tick method value allocates
	// Bytes offered and ticks run, written by the shard owning d.
	bytes, ticks uint64
}

// fluidResidualFloor bounds how much capacity a fluid aggregate can
// take: real packets always serialize at ≥ 1% of the configured rate.
const fluidResidualFloor = 0.01

// AttachFluid attaches a fluid background aggregate to the link
// direction originating at from. The flow is inert until Start. A
// direction carries at most one flow: one already attached there, started
// or not, refuses the next.
func (s *Simulator) AttachFluid(l *Link, from *Node, cfg FluidConfig) (*FluidFlow, error) {
	d := l.dir(from)
	if d == nil {
		return nil, ErrNotConnected
	}
	if cfg.RateBps <= 0 {
		return nil, fmt.Errorf("netem: fluid flow needs positive RateBps, got %g", cfg.RateBps)
	}
	if cfg.JitterFrac < 0 || cfg.JitterFrac >= 1 {
		return nil, fmt.Errorf("netem: fluid JitterFrac %g outside [0,1)", cfg.JitterFrac)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if slices.ContainsFunc(s.fluids, func(g *FluidFlow) bool { return g.d == d }) {
		return nil, fmt.Errorf("netem: link direction %s->%s already carries a fluid flow", from.Name(), d.to.Name())
	}
	// The first attach registers the families (get-or-create ignores the
	// later ones); each sums every flow.
	s.reg.CounterFunc("netem_fluid_bytes_total",
		"Background bytes offered by fluid flows (aggregate load, not packet events).",
		func() uint64 { b, _ := s.FluidTotals(); return b })
	s.reg.CounterFunc("netem_fluid_ticks_total",
		"Fluid flow rate-update ticks executed.",
		func() uint64 { _, t := s.FluidTotals(); return t })
	f := &FluidFlow{d: d, node: from, cfg: cfg, line: d.rateBps}
	f.tickFn = f.tick
	s.fluids = append(s.fluids, f)
	return f, nil
}

// FluidTotals reports the bytes and ticks accounted by fluid flows
// across all shards (zero when none are attached).
func (s *Simulator) FluidTotals() (bytes, ticks uint64) {
	return sum(s.fluids, func(f *FluidFlow) *uint64 { return &f.bytes }),
		sum(s.fluids, func(f *FluidFlow) *uint64 { return &f.ticks })
}

// Start offers load for duration d of virtual time, beginning now. The
// flow stops offering load (and stops scheduling ticks) at the horizon,
// so Simulator.Run terminates with the rest of the workload. A Start on
// a flow still offering load only moves its horizon to now + d.
func (f *FluidFlow) Start(d time.Duration) {
	if f.until = f.node.NowNanos() + int64(d); f.load > 0 {
		return // its tick chain runs on to the new horizon
	}
	f.offer(f.cfg.RateBps)
	f.node.Schedule(f.cfg.Interval, f.tickFn)
}

// offer sets the flow's load and the rate d's packets serialize at: the
// residual, floored so a saturating fluid can slow the measured path by
// at most 100x rather than stall it. An unpaced line stays unpaced.
func (f *FluidFlow) offer(load float64) {
	f.load, f.d.rateBps = load, f.line
	if f.line > 0 && load > 0 {
		f.d.rateBps = max(f.line-load, f.line*fluidResidualFloor)
	}
}

// tick accounts the bytes offered over the elapsed interval, then
// re-draws the next interval's rate — or retires the flow at its
// horizon. Runs on the shard owning the link direction.
func (f *FluidFlow) tick() {
	offered := f.load*f.cfg.Interval.Seconds()/8 + f.rem
	whole := uint64(offered)
	f.rem = offered - float64(whole)
	f.bytes += whole
	f.ticks++
	if f.node.NowNanos() >= f.until {
		f.offer(0)
		return
	}
	rate := f.cfg.RateBps
	if j := f.cfg.JitterFrac; j > 0 {
		rate *= 1 + j*(2*f.node.Rand().Float64()-1)
	}
	f.offer(rate)
	f.node.Schedule(f.cfg.Interval, f.tickFn)
}
