package netem

import (
	"fmt"
	"time"

	"netneutral/internal/obs"
)

// Fluid background traffic: the hybrid abstraction that lets a
// continental backbone carry realistic load without simulating every
// background packet. A FluidFlow models an aggregate (the thousands of
// intra-metro flows that are not being measured) as a piecewise-constant
// bit rate on one link direction. Packet serialization on that direction
// runs at the residual rate (see linkDir.startTransmission), so policing,
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
// run replays bit-identically at any worker count. The per-shard byte
// and tick tallies land in the netem_fluid_* registry families, which
// the eval harness's ObsDigest folds into its replay-identity hash.
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
	d     *linkDir
	node  *Node
	cfg   FluidConfig
	until int64   // horizon, engine nanoseconds
	rem   float64 // fractional byte carry between ticks
	bytes *obs.Counter
	ticks *obs.Counter
}

// fluidResidualFloor bounds how much capacity a fluid aggregate can
// take: real packets always serialize at ≥ 1% of the configured rate.
const fluidResidualFloor = 0.01

// AttachFluid attaches a fluid background aggregate to the link
// direction originating at from. The flow is inert until Start.
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
	if d.fluidBps > 0 {
		return nil, fmt.Errorf("netem: link direction %s->%s already carries a fluid flow", from.Name, d.to.Name)
	}
	bytes := s.Metrics().Counter("netem_fluid_bytes_total",
		"Background bytes offered by fluid flows (aggregate load, not packet events).")
	ticks := s.Metrics().Counter("netem_fluid_ticks_total",
		"Fluid flow rate-update ticks executed.")
	id := from.ShardID()
	return &FluidFlow{
		d: d, node: from, cfg: cfg,
		bytes: bytes.Stripe(id), ticks: ticks.Stripe(id),
	}, nil
}

// FluidTotals reports the bytes and ticks accounted by fluid flows
// across all shards (zero when none are attached). Registration is
// get-or-create, so reading is idempotent with AttachFluid's.
func (s *Simulator) FluidTotals() (bytes, ticks uint64) {
	reg := s.Metrics()
	return reg.Counter("netem_fluid_bytes_total",
			"Background bytes offered by fluid flows (aggregate load, not packet events).").Value(),
		reg.Counter("netem_fluid_ticks_total",
			"Fluid flow rate-update ticks executed.").Value()
}

// Start offers load for duration d of virtual time, beginning now. The
// flow stops offering load (and stops scheduling ticks) at the horizon,
// so Simulator.Run terminates with the rest of the workload.
func (f *FluidFlow) Start(d time.Duration) {
	f.until = f.node.NowNanos() + int64(d)
	f.d.fluidBps = f.cfg.RateBps
	f.node.Schedule(f.cfg.Interval, f.tick)
}

// tick accounts the bytes offered over the elapsed interval, then
// re-draws the next interval's rate — or retires the flow at its
// horizon. Runs on the shard owning the link direction.
func (f *FluidFlow) tick() {
	offered := f.d.fluidBps*f.cfg.Interval.Seconds()/8 + f.rem
	whole := uint64(offered)
	f.rem = offered - float64(whole)
	f.bytes.Add(whole)
	f.ticks.Inc()
	if f.node.NowNanos() >= f.until {
		f.d.fluidBps = 0
		return
	}
	rate := f.cfg.RateBps
	if j := f.cfg.JitterFrac; j > 0 {
		rate *= 1 + j*(2*f.node.Rand().Float64()-1)
	}
	f.d.fluidBps = rate
	f.node.Schedule(f.cfg.Interval, f.tick)
}
