package netem

import (
	"fmt"
	"testing"
	"time"

	"netneutral/internal/obs"
)

// family reads one family's value from the simulator's registry.
func family(s *Simulator, name string) uint64 {
	m := s.Metrics().Snapshot().Get(name)
	if m == nil {
		panic("netem: registry has no family " + name)
	}
	return uint64(m.Value)
}

// obsWorldResult captures everything observation must reproduce exactly
// across worker counts: the sim's own identity counters, the recorder's
// digest of every barrier sample, and the flight recorder's sampled
// event set.
type obsWorldResult struct {
	delivered, events uint64
	ticks             uint64
	digest, samples   uint64
	flight            []obs.TraceRec
	flightSeen        uint64
}

// runObsWorld is runParWorld's observability twin: same topology family,
// with the observability plane (Simulator.Observe) on: a Recorder
// ticking at every barrier and a FlightRecorder sampling 1-in-8 plus one
// tagged flow.
func runObsWorld(t testing.TB, seed int64, workers int) *obsWorldResult {
	t.Helper()
	sim := NewSimulator(simStart, seed)
	f, err := BuildFanout(sim, FanoutSpec{
		Hosts: 96, HostsPerEdge: 24, Outside: 1,
		ShardSubtrees: true,
		HostLink:      LinkConfig{Delay: 800 * time.Microsecond},
		EdgeLink:      LinkConfig{Delay: 1200 * time.Microsecond, RateBps: 50e6, QueueLen: 32},
		TransitLink:   LinkConfig{Delay: 1500 * time.Microsecond, RateBps: 80e6, QueueLen: 32},
		OutsideLink:   LinkConfig{Delay: 900 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(workers)

	fr := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 8, RingSize: 256})
	fr.Tag(FlowHash(mkUDP(t, f.HostAddr(0), f.OutsideAddr(0), []byte{0xEE})))
	rec := sim.Observe(fr)

	delivered := f.CountDeliveries()
	end := simStart.Add(120 * time.Millisecond)
	sender := func(node *Node, pkt []byte, gap time.Duration) {
		var step func()
		step = func() {
			if node.Now().After(end) {
				return
			}
			_ = node.Send(pkt)
			node.Schedule(gap/2+time.Duration(node.Rand().Int63n(int64(gap))), step)
		}
		node.Schedule(time.Duration(node.Rand().Int63n(int64(gap))), step)
	}
	for i := 0; i < 96; i += 5 {
		sender(f.Outside[0], mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), []byte{byte(i)}), 4*time.Millisecond)
	}
	sender(f.Hosts[0], mkUDP(t, f.HostAddr(0), f.OutsideAddr(0), []byte{0xEE}), 3*time.Millisecond)

	sim.RunFor(60 * time.Millisecond)
	sim.Run()

	res := &obsWorldResult{
		delivered:  family(sim, "netem_delivered_packets_total"),
		events:     sim.EventsProcessed(),
		ticks:      rec.Ticks(),
		flight:     fr.Events(),
		flightSeen: fr.Seen(),
	}
	res.digest, res.samples = rec.Digest()
	// Hosts tally a strict subset of deliveries (outside-node deliveries
	// count only in the engine total).
	if ht := delivered.Total(); ht == 0 || ht > res.delivered {
		t.Fatalf("DeliveryCount %d vs Delivered %d", ht, res.delivered)
	}
	return res
}

// TestObservedParallelIdentity is the determinism-under-observation
// property at the engine level: with a Recorder ticking at barriers and
// a FlightRecorder sampling, a seeded run's counters, the recorder's
// digest and sample count, and the sampled-event set are bit-identical
// at workers 1 and 4.
func TestObservedParallelIdentity(t *testing.T) {
	serial := runObsWorld(t, 11, 1)
	if serial.delivered == 0 || serial.ticks == 0 || serial.samples == 0 || len(serial.flight) == 0 {
		t.Fatalf("degenerate observed world: delivered=%d ticks=%d samples=%d flight=%d",
			serial.delivered, serial.ticks, serial.samples, len(serial.flight))
	}
	par := runObsWorld(t, 11, 4)
	if par.delivered != serial.delivered || par.events != serial.events {
		t.Fatalf("sim identity diverged under observation: delivered %d/%d events %d/%d",
			serial.delivered, par.delivered, serial.events, par.events)
	}
	if par.ticks != serial.ticks {
		t.Fatalf("recorder ticks diverged: %d vs %d", serial.ticks, par.ticks)
	}
	if par.digest != serial.digest || par.samples != serial.samples {
		t.Fatalf("recorder digest diverged between worker counts: %016x (%d samples) vs %016x (%d samples)",
			serial.digest, serial.samples, par.digest, par.samples)
	}
	if par.flightSeen != serial.flightSeen || len(par.flight) != len(serial.flight) {
		t.Fatalf("flight recorder diverged: seen %d/%d events %d/%d",
			serial.flightSeen, par.flightSeen, len(serial.flight), len(par.flight))
	}
	for i := range serial.flight {
		if serial.flight[i] != par.flight[i] {
			t.Fatalf("flight event %d diverged:\n workers=1: %+v\n workers=4: %+v",
				i, serial.flight[i], par.flight[i])
		}
	}
}

// TestOnBarrierSerialRuns pins that serial (unsharded) simulators tick
// observers at the end of every Run/RunFor call — their quiescent
// points — with the virtual clock.
func TestOnBarrierSerialRuns(t *testing.T) {
	sim := NewSimulator(simStart, 1)
	var ticks []time.Time
	sim.OnBarrier(func(now time.Time) { ticks = append(ticks, now) })
	sim.Schedule(5*time.Millisecond, func() {})
	sim.RunFor(10 * time.Millisecond)
	sim.RunFor(10 * time.Millisecond)
	if len(ticks) != 2 {
		t.Fatalf("serial barrier ticks = %d, want 2", len(ticks))
	}
	if !ticks[0].Equal(simStart.Add(10 * time.Millisecond)) {
		t.Errorf("tick 0 at %v, want limit time", ticks[0])
	}
	if !ticks[1].Equal(simStart.Add(20 * time.Millisecond)) {
		t.Errorf("tick 1 at %v, want second limit", ticks[1])
	}
}

// TestBarrierFamiliesMatchAccessors: every netem_* family sums, at read
// time, the counts its writers keep. At every barrier of a parallel run
// and after it, a registry snapshot must therefore equal the accessors
// and the counts themselves — each fluid flow's and both delivery
// tallies' included (one family over several writers).
func TestBarrierFamiliesMatchAccessors(t *testing.T) {
	sim := NewSimulator(simStart, 5)
	f, err := BuildFanout(sim, FanoutSpec{
		Hosts: 48, HostsPerEdge: 12, Outside: 1,
		ShardSubtrees: true,
		HostLink:      LinkConfig{Delay: 800 * time.Microsecond},
		EdgeLink:      LinkConfig{Delay: 1200 * time.Microsecond, RateBps: 20e6, QueueLen: 8},
		TransitLink:   LinkConfig{Delay: 1500 * time.Microsecond, RateBps: 80e6, QueueLen: 32},
		OutsideLink:   LinkConfig{Delay: 900 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(2)
	for _, l := range f.EdgeLinks {
		fl, err := sim.AttachFluid(l, f.Border, FluidConfig{RateBps: 15e6, JitterFrac: 0.3, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		fl.Start(80 * time.Millisecond)
	}
	end := simStart.Add(80 * time.Millisecond)
	for i := 0; i < 48; i += 3 {
		src, pkt := f.Outside[0], mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), make([]byte, 400))
		var step func()
		step = func() {
			if src.Now().Before(end) {
				_ = src.Send(pkt)
				src.Schedule(time.Millisecond+time.Duration(src.Rand().Int63n(int64(time.Millisecond))), step)
			}
		}
		src.Schedule(time.Duration(i)*100*time.Microsecond, step)
	}

	tallies := []*DeliveryCount{f.CountDeliveries()}
	shardSum := func(count func(*shard) int) float64 {
		n := 0
		for _, sh := range sim.shards {
			n += count(sh)
		}
		return float64(n)
	}
	barriers := 0
	check := func(when string) {
		fluidBytes, fluidTicks := sim.FluidTotals()
		alloc, gets := sim.PoolStats()
		var tallied uint64
		for _, d := range tallies {
			tallied += d.Total()
		}
		want := map[string]float64{
			"netem_events_total":                             float64(sim.EventsProcessed()),
			"netem_delivered_packets_total":                  shardSum(func(sh *shard) int { return int(sh.nDelivered) }),
			"netem_forwarded_packets_total":                  float64(sim.Forwarded()),
			"netem_dropped_packets_total":                    float64(sim.Dropped()),
			"netem_pool_allocated_buffers_total":             float64(alloc),
			"netem_pool_checkouts_total":                     float64(gets),
			"netem_link_tx_packets_total":                    shardSum(func(sh *shard) int { return int(sh.nLinkTx) }),
			"netem_link_queue_drops_total":                   shardSum(func(sh *shard) int { return int(sh.nLinkQDrop) }),
			"netem_heap_depth":                               shardSum(func(sh *shard) int { return sh.events.len() }),
			"netem_pool_free_buffers":                        shardSum(func(sh *shard) int { return len(sh.pool.free) }),
			`netem_queue_pushes_total{path="lane"}`:          shardSum(func(sh *shard) int { return int(sh.events.inLane) }),
			`netem_queue_pushes_total{path="heap"}`:          shardSum(func(sh *shard) int { return int(sh.events.inHeap) }),
			`netem_link_starts_total{path="direct"}`:         shardSum(func(sh *shard) int { return int(sh.nStartDirect) }),
			`netem_link_starts_total{path="queued"}`:         shardSum(func(sh *shard) int { return int(sh.nStartQueued) }),
			`netem_barrier_mailboxes_total{state="drained"}`: float64(sim.mailDrained),
			`netem_barrier_mailboxes_total{state="silent"}`:  float64(sim.mailSilent),
			"netem_epochs_total":                             float64(sim.epochs),
			"netem_epoch_wall_ns":                            float64(sim.epochs), // one observation per epoch
			"netem_lookahead_ns":                             float64(sim.lookahead),
			"netem_fluid_bytes_total":                        float64(fluidBytes),
			"netem_fluid_ticks_total":                        float64(fluidTicks),
			"netem_fanout_delivered_packets_total":           float64(tallied),
		}
		seen := 0
		for _, m := range sim.Metrics().Snapshot().Metrics {
			w, ok := want[m.Name]
			if !ok {
				t.Errorf("%s: family %s has no accessor to check", when, m.Name)
				continue
			}
			if m.Value != w {
				t.Errorf("%s: %s = %v, accessor says %v", when, m.Name, m.Value, w)
			}
			seen++
		}
		if seen != len(want) {
			t.Errorf("%s: registry has %d of the %d netem families", when, seen, len(want))
		}
	}
	sim.OnBarrier(func(time.Time) {
		barriers++
		check(fmt.Sprintf("barrier %d", barriers))
	})

	// The second tally replaces the first's handlers: each counts only
	// its own half of the run, and the family counts both.
	sim.RunFor(40 * time.Millisecond)
	tallies = append(tallies, f.CountDeliveries())
	sim.Run()
	check("after Run")
	if barriers < 10 {
		t.Fatalf("only %d barriers: the run is not sharded", barriers)
	}
	if fb, _ := sim.FluidTotals(); fb == 0 || tallies[0].Total() == 0 || tallies[1].Total() == 0 || sim.Dropped() == 0 {
		t.Fatalf("degenerate run: fluid bytes %d, tallies %d and %d, drops %d",
			fb, tallies[0].Total(), tallies[1].Total(), sim.Dropped())
	}
}
