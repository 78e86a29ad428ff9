// The fan-out scenario kit. E6–E10 and E13 run on one substrate — a
// seeded simulator, a BuildFanout topology, the master-key schedule —
// and put the same attachments on it: a neutralizer at the border, an
// adversary or tap at transit, credentialed flows, endhosts, the
// address-targeting rule. Each is built here and nowhere else, so the
// seeded identity plan cannot drift between experiments; E6 and E13
// also share one harvest record and one worker-identity sweep.
package eval

import (
	"fmt"
	mathrand "math/rand"
	"net/netip"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/cloak"
	"netneutral/internal/core"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/dpi"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// attachNeutralizer wires the stateless core at f's border on the
// zero-alloc scratch path, clocked by the border's shard so sharded
// runs read exact event time.
func attachNeutralizer(sched *keys.Schedule, f *netem.Fanout) error {
	neut, err := core.New(core.Config{
		Schedule:   sched,
		Anycast:    f.Spec.Anycast,
		IsCustomer: f.CustomerNet.Contains,
		Clock:      f.Border.Now,
	})
	if err != nil {
		return err
	}
	AttachNeutralizerScratch(f.Border, neut)
	return nil
}

// fanoutEnv is the shared substrate of the fan-out experiments.
type fanoutEnv struct {
	Sim *netem.Simulator
	Fan *netem.Fanout
	// Sched is the canonical master-key schedule, Epoch the one the run
	// starts in: what the stateless border re-derives credentials from.
	Sched *keys.Schedule
	Epoch keys.Epoch
	// seed is the simulator's; the transit adversaries' RNGs are fixed
	// offsets from it, so worlds on different seeds share no drop stream.
	seed    int64
	shapers []*cloak.Shaper // of the env's cloaked flows
}

// newFanoutEnv builds a seeded simulator with the given fan-out and the
// canonical schedule; a neutralized world gets the core at its border.
func newFanoutEnv(seed int64, spec netem.FanoutSpec, neutralized bool) (*fanoutEnv, error) {
	sim := netem.NewSimulator(benchStart, seed)
	f, err := netem.BuildFanout(sim, spec)
	if err != nil {
		return nil, err
	}
	sched := benchenv.NewSchedule()
	if neutralized {
		err = attachNeutralizer(sched, f)
	}
	return &fanoutEnv{Sim: sim, Fan: f, Sched: sched, Epoch: sched.EpochAt(sim.Now()), seed: seed}, err
}

const portRuleName = "target-port"

// portRuleAtTransit installs the strawman adversary: drop 90% of UDP
// packets addressed to port.
func (e *fanoutEnv) portRuleAtTransit(port uint16) *isp.Policy {
	p := isp.NewPolicy(mathrand.New(mathrand.NewSource(e.seed+101)), isp.Rule{
		Name:   portRuleName,
		Match:  isp.MatchUDPPort(port),
		Action: isp.Action{DropProb: 0.9},
	})
	e.Fan.Transit.AddTransitHook(p.Hook())
	return p
}

// dpiAtTransit installs the statistical adversary: classify flows by
// size and timing features with cls and enforce pol on what it finds.
func (e *fanoutEnv) dpiAtTransit(cls *dpi.Classifier, pol dpi.Policy, stealthSeed uint64) *dpi.Engine {
	engine := dpi.NewEngine(dpi.EngineConfig{
		Classifier:  cls,
		Policy:      pol,
		Rng:         mathrand.New(mathrand.NewSource(e.seed + 77)),
		StealthSeed: stealthSeed,
	})
	e.Fan.Transit.AddTransitHook(engine.Hook())
	return engine
}

// tapAtTransit installs a passive feature tap: it observes every packet
// into a flow table (classifying with cls, if not nil) and interferes
// with none.
func (e *fanoutEnv) tapAtTransit(cls *dpi.Classifier) *dpi.FlowTable {
	tab := dpi.NewFlowTable(cls)
	e.Fan.Transit.AddTransitHook(func(now time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		if key, fwd, ok := netem.FlowKeyOf(pkt); ok {
			tab.Observe(key, fwd, len(pkt), now.UnixNano())
		}
		return netem.Deliver
	})
	return tab
}

// calibrationConfig is the reduced arms run adversaries outside E7 train on.
func calibrationConfig(seed int64) ArmsConfig {
	return ArmsConfig{FlowsPerClass: 8, Seed: seed, Duration: 2 * time.Second}
}

// trainClassifier trains the statistical adversary on a passive
// calibration run of encrypted app-shaped flows, labeled by the known
// flow->class assignment; it also returns the calibration population.
func trainClassifier(cfg ArmsConfig) (*dpi.Classifier, int, error) {
	samples, _, err := armsSamples(cfg, ModeEncrypted, 1)
	if err != nil {
		return nil, 0, err
	}
	cls, err := dpi.Train(samples)
	if err != nil {
		return nil, 0, fmt.Errorf("eval: dpi calibration: %w", err)
	}
	return cls, len(samples), nil
}

const targetCustomerRule = "target-customer"

// targetCustomer installs, at router, the discriminatory ISP's attempt
// to target one customer by address. Neutralized traffic never names
// the customer, so the rule must never fire. Transit and core routers
// live on shard 0, so the policy draws from shard 0's RNG.
func targetCustomer(sim *netem.Simulator, router *netem.Node, customer netip.Addr) *isp.Policy {
	p := isp.NewPolicy(sim.Rand(), isp.Rule{
		Name:   targetCustomerRule,
		Match:  isp.MatchDstAddr(customer),
		Action: isp.Action{DropProb: 1},
	})
	router.AddTransitHook(p.Hook())
	return p
}

// flowSpec names one application flow toward a customer host.
type flowSpec struct {
	Src  *netem.Node
	Dst  netip.Addr
	Mode ArmsMode
	Port uint16 // UDP destination of a plaintext flow
	// Index and Exp make a neutralized flow's credentials unique: nonce
	// {Index hi, lo, 0…, 0xE0|Exp}, address-block tweak {lo, hi, 0xA0|Exp}.
	Index int
	Exp   byte
	// CloakFor is how long a cloaked flow's shaper keeps its tick grid.
	CloakFor time.Duration
}

// probeSrcPort is the UDP source port of every plaintext flow and probe.
const probeSrcPort = 40000

// flowSender credentials one flow and returns its send(payload): plain
// UDP for ModePlaintext, otherwise a shim data packet to the anycast
// address, through a cloak shaper first for ModeCloaked. Each send lays
// its packet out in a buffer the sender keeps, since Node.Send copies it
// into a pooled packet: a send allocates nothing.
func (e *fanoutEnv) flowSender(fl flowSpec) (func(payload []byte), error) {
	src, srcAddr := fl.Src, fl.Src.Addr()
	var buf []byte
	if fl.Mode == ModePlaintext {
		return func(payload []byte) {
			buf, _ = wire.AppendUDP(buf[:0], srcAddr, fl.Dst, probeSrcPort, fl.Port, payload) // fan-out addresses are IPv4
			_ = src.Send(buf)
		}, nil
	}
	var nonce keys.Nonce
	nonce[0], nonce[1], nonce[7] = byte(fl.Index>>8), byte(fl.Index), 0xE0|fl.Exp
	flow, err := benchenv.NewFlow(e.Sched, e.Epoch, srcAddr, nonce, 0)
	if err != nil {
		return nil, err
	}
	hdr, err := flow.Header(fl.Dst, [8]byte{byte(fl.Index), byte(fl.Index >> 8), 0xA0 | fl.Exp})
	if err != nil {
		return nil, err
	}
	anycast := e.Fan.Spec.Anycast
	send := func(payload []byte) {
		pkt, err := shim.AppendPacket(buf[:0], srcAddr, anycast, 0, &hdr, payload)
		if err != nil {
			return
		}
		buf = pkt
		_ = src.Send(buf)
	}
	if fl.Mode == ModeCloaked {
		shaper := cloak.NewShaper(e.Sim, send)
		shaper.Run(fl.CloakFor)
		e.shapers = append(e.shapers, shaper)
		send = shaper.Send
	}
	return send, nil
}

// cloakCost totals what the env's cloak shapers spent.
func (e *fanoutEnv) cloakCost() (total cloak.Stats) {
	for _, sh := range e.shapers {
		st := sh.Stats()
		total.RealBytes += st.RealBytes
		total.WireBytes += st.WireBytes
		total.Frames += st.Frames
		total.QueueDelaySum += st.QueueDelaySum
	}
	return total
}

// flowKey is the key a transit observer files the flow from src under:
// (src, dst, UDP) in the clear, (src, anycast, shim) once neutralized.
func (e *fanoutEnv) flowKey(src, dst netip.Addr, mode ArmsMode) (netem.FlowKey, error) {
	if mode == ModePlaintext {
		return netem.FlowKeyFrom(src, dst, wire.ProtoUDP)
	}
	return netem.FlowKeyFrom(src, e.Fan.Spec.Anycast, wire.ProtoShim)
}

// newEndhost builds an endhost sending through node on sim's clock. The
// caller decides what delivers packets to it (node.SetHandler for a
// bare host, simnet's HostMux under real protocol stacks).
func newEndhost(sim *netem.Simulator, node *netem.Node, idSeed, randSeed int64) (*endhost.Host, error) {
	id, err := e2e.NewIdentity(detRand(idSeed), 0)
	if err != nil {
		return nil, err
	}
	return endhost.NewHost(endhost.Config{
		Addr:      node.Addr(),
		Transport: node.Send,
		Identity:  id,
		Clock:     sim.Now,
		Rand:      detRand(randSeed),
	})
}

// EngineRun is what an engine-scale run (E6, E13) harvests from the
// simulator. Everything but the wall-clock fields and the lane/heap
// split must be bit-identical at every worker count (identityKey).
type EngineRun struct {
	Shards         int
	Workers        int
	Offered        uint64 // packets scheduled: what Delivered must equal
	Delivered      uint64
	Forwarded      uint64
	Dropped        uint64
	ClassifierHits uint64
	SimEvents      uint64
	// FluidBytes and FluidTicks total the fluid background load (zero
	// for a run without fluid flows).
	FluidBytes, FluidTicks uint64
	PoolAllocated          uint64
	PoolGets               uint64
	// LanePushes and HeapPushes split the event-queue pushes by the
	// structure that took them (the volatile netem_queue_pushes_total
	// families).
	LanePushes, HeapPushes uint64

	BuildTime    time.Duration
	RunTime      time.Duration // wall clock of the event loop
	EventsPerSec float64       // SimEvents / RunTime
	// Obs is the observation digest (nil unless the config's Observe).
	Obs *ObsDigest
}

// drive runs the scheduled traffic to quiescence, harvests the record,
// and gives the verdict both scenarios share: every offered packet
// delivered, the address-targeting rule at router silent.
func (r *EngineRun) drive(scenario, router string, sim *netem.Simulator, rule *isp.Policy, o *observation, tallies ...*netem.DeliveryCount) error {
	runStart := time.Now()
	sim.Run()
	r.RunTime = time.Since(runStart)

	for _, d := range tallies {
		r.Delivered += d.Total()
	}
	r.Forwarded = sim.Forwarded()
	r.Dropped = sim.Dropped()
	r.ClassifierHits = rule.Hits(targetCustomerRule)
	r.SimEvents = sim.EventsProcessed()
	r.FluidBytes, r.FluidTicks = sim.FluidTotals()
	r.PoolAllocated, r.PoolGets = sim.PoolStats()
	for _, m := range sim.Metrics().Snapshot().Metrics {
		switch m.Name {
		case `netem_queue_pushes_total{path="lane"}`:
			r.LanePushes = uint64(m.Value)
		case `netem_queue_pushes_total{path="heap"}`:
			r.HeapPushes = uint64(m.Value)
		}
	}
	r.Obs = o.digest()
	if sec := r.RunTime.Seconds(); sec > 0 {
		r.EventsPerSec = float64(r.SimEvents) / sec
	}
	if r.Delivered != r.Offered {
		return fmt.Errorf("eval: %s delivered %d of %d packets (dropped %d)",
			scenario, r.Delivered, r.Offered, r.Dropped)
	}
	// A firing classifier means neutralized packets named a customer —
	// the exact regression the CI smoke steps exist to catch.
	if r.ClassifierHits != 0 {
		return fmt.Errorf("eval: %s classifier fired %d times on neutralized traffic",
			router, r.ClassifierHits)
	}
	return nil
}

// identityKey is the outcome a run must reproduce exactly at every
// worker count. The last four words are the observation digest (zero
// when unobserved): recorder ticks, ring, flight-event and
// final-registry fingerprints.
func (r *EngineRun) identityKey() [13]uint64 {
	k := [13]uint64{
		r.Offered, r.Delivered, r.Forwarded, r.Dropped, r.ClassifierHits,
		r.SimEvents, r.FluidBytes, r.FluidTicks, r.PoolGets,
	}
	ok := r.Obs.key()
	copy(k[9:], ok[:])
	return k
}

// workerSweep runs one seeded scenario at each worker count and
// enforces bit-identical identity keys.
func workerSweep[S interface{ identityKey() [13]uint64 }](scenario string, workers []int, run func(workers int) (S, error)) ([]S, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("eval: %s: empty worker sweep", scenario)
	}
	out := make([]S, 0, len(workers))
	for _, w := range workers {
		st, err := run(w)
		if err != nil {
			return nil, fmt.Errorf("eval: %s workers=%d: %w", scenario, w, err)
		}
		if len(out) > 0 && st.identityKey() != out[0].identityKey() {
			return nil, fmt.Errorf(
				"eval: %s determinism violated: workers=%d outcome %v != workers=%d outcome %v",
				scenario, w, st.identityKey(), workers[0], out[0].identityKey())
		}
		out = append(out, st)
	}
	return out, nil
}
