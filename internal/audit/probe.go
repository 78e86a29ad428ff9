package audit

import (
	"fmt"
	"math/rand"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
)

const (
	// window is the measured span of one interleaved trial.
	window = time.Second
	// gap is the unmeasured settle span between interleaved trials.
	gap = 200 * time.Millisecond
	// NaivePackets is the per-burst packet count of the naive strategy —
	// deliberately below a probe-evading ISP's flow-age threshold, which
	// is the point E8 makes.
	NaivePackets = 64
	// naivePeriod is the naive strategy's per-trial period: suspect burst
	// at the start, control burst at the half.
	naivePeriod = 4 * time.Second
	// suspect is the app shape the suspect flow imitates: VoIP, the
	// canonical throttling target.
	suspect = trafficgen.AppVoIP
)

// ProberConfig configures one vantage's paired probe run.
type ProberConfig struct {
	// On is the scheduling context the probe flows run on (required):
	// the simulator for single-threaded runs, or the vantage's source
	// node on sharded simulations, so every emission executes on (and
	// draws its timing from) the shard that owns the vantage.
	On netem.Context
	// Rng drives flow jitter; seed it so an audit replays bit-
	// identically (required).
	Rng *rand.Rand
	// Strategy selects naive bursts or interleaved long-lived flows.
	Strategy Strategy
	// Trials is the number of paired measurement windows (default 12).
	Trials int
	// Emit transmits one probe packet of the given payload size. The
	// trial index is NoTrial for unmeasured emissions; the naive
	// strategy's emissions always carry their trial so the caller can
	// key each burst to a fresh flow identity.
	Emit func(role Role, trial int, size int)
}

func (c *ProberConfig) fill() error {
	if c.On == nil || c.Rng == nil || c.Emit == nil {
		return fmt.Errorf("audit: ProberConfig needs On, Rng and Emit")
	}
	if c.Trials <= 0 {
		c.Trials = 12
	}
	if c.Trials > MaxReportTrials {
		return fmt.Errorf("audit: %d trials exceed %d", c.Trials, MaxReportTrials)
	}
	return nil
}

// Prober runs one vantage's paired differential probe and accounts the
// results into per-trial records. Emission accounting runs on the
// vantage's scheduling context; delivery accounting (Deliver /
// HandleProbe) runs on the probe target's shard. The two sides write
// disjoint Trial fields (Sent vs Delivered/DelaySum/DelayPkts), so a
// sharded run needs no locking and stays deterministic.
type Prober struct {
	cfg    ProberConfig
	start  time.Time
	trials []Trial
	met    *proberMetrics // nil until Instrument
}

// NewProber validates the config and prepares the trial ledger.
func NewProber(cfg ProberConfig) (*Prober, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Prober{cfg: cfg, trials: make([]Trial, cfg.Trials)}, nil
}

// Duration reports how long the probe runs from Run.
func (p *Prober) Duration() time.Duration {
	return time.Duration(p.cfg.Trials) * p.period()
}

// period is one trial's span under the prober's strategy.
func (p *Prober) period() time.Duration {
	if p.cfg.Strategy == StrategyNaive {
		return naivePeriod
	}
	return window + gap
}

// Run schedules the whole probe on the simulator, starting now.
func (p *Prober) Run() {
	p.start = p.cfg.On.Now()
	if p.cfg.Strategy == StrategyNaive {
		p.runNaive()
		return
	}
	p.runInterleaved()
}

// runInterleaved launches the two long-lived flows; the emit wrappers
// attribute each emission to the trial window (if any) that is
// measuring its role at send time.
func (p *Prober) runInterleaved() {
	total := p.Duration()
	suspectRng := rand.New(rand.NewSource(p.cfg.Rng.Int63()))
	controlRng := rand.New(rand.NewSource(p.cfg.Rng.Int63()))
	trafficgen.AppSource{App: suspect, Rng: suspectRng}.Run(p.cfg.On, total, p.emitFn(RoleSuspect))
	trafficgen.ControlSource{Rng: controlRng}.Run(p.cfg.On, total, p.emitFn(RoleControl))
}

// runNaive schedules per-trial fresh bursts: suspect at each trial
// start, control at the half period — back-to-back by construction.
func (p *Prober) runNaive() {
	on := p.cfg.On
	for t := 0; t < p.cfg.Trials; t++ {
		trial := t
		suspectRng := rand.New(rand.NewSource(p.cfg.Rng.Int63()))
		controlRng := rand.New(rand.NewSource(p.cfg.Rng.Int63()))
		at := time.Duration(t) * naivePeriod
		on.Schedule(at, func() {
			trafficgen.AppSource{App: suspect, Rng: suspectRng}.
				RunN(on, NaivePackets, p.burstEmit(RoleSuspect, trial))
		})
		on.Schedule(at+naivePeriod/2, func() {
			trafficgen.ControlSource{Rng: controlRng}.
				RunN(on, NaivePackets, p.burstEmit(RoleControl, trial))
		})
	}
}

// emitFn wraps Emit for a continuous flow: account the emission to the
// measuring window, then transmit.
func (p *Prober) emitFn(role Role) func(seq uint64, size int) {
	return func(_ uint64, size int) {
		trial := p.measuredTrial(role, p.cfg.On.Now())
		if trial != NoTrial {
			p.trials[trial].Sent[role] += uint64(size)
			if p.met != nil {
				p.met.sent[role].Add(uint64(size))
			}
		}
		p.cfg.Emit(role, trial, size)
	}
}

// burstEmit wraps Emit for a naive burst: the whole burst belongs to
// its trial.
func (p *Prober) burstEmit(role Role, trial int) func(seq uint64, size int) {
	return func(_ uint64, size int) {
		p.trials[trial].Sent[role] += uint64(size)
		if p.met != nil {
			p.met.sent[role].Add(uint64(size))
		}
		p.cfg.Emit(role, trial, size)
	}
}

// measuredTrial maps an emission time to the trial currently measuring
// the role, or NoTrial. Even-numbered trials measure both flows in
// parallel over the full window; odd-numbered trials split the window
// back-to-back into two half-windows, alternating which role is
// measured first — so every pairing discipline contributes samples and
// mutual interference between the two probe flows is controlled for.
func (p *Prober) measuredTrial(role Role, now time.Time) int {
	elapsed := now.Sub(p.start)
	if elapsed < 0 {
		return NoTrial
	}
	const period = window + gap
	t := int(elapsed / period)
	if t >= p.cfg.Trials {
		return NoTrial
	}
	off := elapsed - time.Duration(t)*period
	if off >= window {
		return NoTrial // settle gap
	}
	if t%2 == 0 {
		return t // parallel window: both roles measured
	}
	first := RoleSuspect
	if t%4 == 3 {
		first = RoleControl
	}
	measured := first
	if off >= window/2 {
		measured = 1 - first
	}
	if role != measured {
		return NoTrial
	}
	return t
}

// Deliver accounts one delivered probe packet. Out-of-range indices
// (NoTrial, corrupt payloads) are ignored.
func (p *Prober) Deliver(role Role, trial int, size int, delay time.Duration) {
	if role >= NumRoles || trial < 0 || trial >= len(p.trials) {
		return
	}
	t := &p.trials[trial]
	t.Delivered[role] += uint64(size)
	t.DelaySum[role] += int64(delay)
	t.DelayPkts[role]++
	if p.met != nil {
		p.met.delivered[role].Add(uint64(size))
		p.met.pkts[role].Inc()
	}
}

// HandleProbe parses a delivered probe payload and accounts it: the
// vantage agent's receive hook.
func (p *Prober) HandleProbe(now time.Time, payload []byte) {
	role, trial, sentNanos, ok := ParseProbePayload(payload)
	if !ok || trial == NoTrial {
		return
	}
	p.Deliver(role, trial, len(payload), time.Duration(now.UnixNano()-sentNanos))
}

// Report snapshots the vantage's measurement for aggregation.
func (p *Prober) Report(vantage int, inside bool) *Report {
	r := &Report{
		Vantage:  uint16(vantage),
		Inside:   inside,
		Strategy: p.cfg.Strategy,
		Trials:   make([]Trial, len(p.trials)),
	}
	copy(r.Trials, p.trials)
	return r
}
