package netem

import (
	"fmt"
	"testing"
	"time"

	"netneutral/internal/obs"
)

// obsWorldResult captures everything observation must reproduce exactly
// across worker counts: the sim's own identity counters, the recorder's
// time-series rings, and the flight recorder's sampled event set.
type obsWorldResult struct {
	delivered, events uint64
	ticks             uint64
	rings             string
	flight            []obs.TraceRec
	flightSeen        uint64
}

// runObsWorld is runParWorld's observability twin: same topology family,
// with a Recorder ticking at every barrier and a FlightRecorder sampling
// 1-in-8 plus one tagged flow.
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

	rec := obs.NewRecorder(sim.Metrics())
	sim.OnBarrier(func(now time.Time) { rec.Tick(now.UnixNano()) })
	fr := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 8, RingSize: 256})
	fr.Tag(FlowHash(mkUDP(t, f.HostAddr(0), f.OutsideAddr(0), []byte{0xEE})))
	sim.AttachFlightRecorder(fr)

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
		delivered:  sim.met.delivered.Value(),
		events:     sim.EventsProcessed(),
		ticks:      rec.Ticks(),
		flight:     fr.Events(),
		flightSeen: fr.Seen(),
	}
	for _, s := range rec.Series() {
		times, vals := s.Points()
		res.rings += s.Name
		for i := range times {
			res.rings += fmt.Sprintf(";%d=%g", times[i], vals[i])
		}
		res.rings += "\n"
	}
	// Hosts tally a strict subset of deliveries (outside-node deliveries
	// count only in the engine total).
	if ht := delivered.Total(); ht == 0 || ht > res.delivered {
		t.Fatalf("DeliveryCount %d vs Delivered %d", ht, res.delivered)
	}
	return res
}

// TestObservedParallelIdentity is the determinism-under-observation
// property at the engine level: with a Recorder ticking at barriers and
// a FlightRecorder sampling, a seeded run's counters, time-series rings
// and sampled-event set are bit-identical at workers 1 and 4.
func TestObservedParallelIdentity(t *testing.T) {
	serial := runObsWorld(t, 11, 1)
	if serial.delivered == 0 || serial.ticks == 0 || len(serial.flight) == 0 {
		t.Fatalf("degenerate observed world: delivered=%d ticks=%d flight=%d",
			serial.delivered, serial.ticks, len(serial.flight))
	}
	par := runObsWorld(t, 11, 4)
	if par.delivered != serial.delivered || par.events != serial.events {
		t.Fatalf("sim identity diverged under observation: delivered %d/%d events %d/%d",
			serial.delivered, par.delivered, serial.events, par.events)
	}
	if par.ticks != serial.ticks {
		t.Fatalf("recorder ticks diverged: %d vs %d", serial.ticks, par.ticks)
	}
	if par.rings != serial.rings {
		t.Fatalf("recorder rings diverged between worker counts:\n--- workers=1\n%s\n--- workers=4\n%s",
			serial.rings, par.rings)
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

// TestRegistryMirrorsAccessors pins the satellite migration: the legacy
// accessors are thin reads over the registry, so the registry's merged
// families must agree with them exactly.
func TestRegistryMirrorsAccessors(t *testing.T) {
	sim := NewSimulator(simStart, 3)
	f, err := BuildFanout(sim, FanoutSpec{Hosts: 8, HostsPerEdge: 4, Outside: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(i%8), []byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	snap := sim.Metrics().Snapshot()
	checks := []struct {
		name string
		want uint64
	}{
		{"netem_forwarded_packets_total", sim.Forwarded()},
		{"netem_dropped_packets_total", sim.Dropped()},
		{"netem_events_total", sim.EventsProcessed()},
	}
	alloc, gets := sim.PoolStats()
	checks = append(checks,
		struct {
			name string
			want uint64
		}{"netem_pool_allocated_buffers_total", alloc},
		struct {
			name string
			want uint64
		}{"netem_pool_checkouts_total", gets})
	for _, c := range checks {
		m := snap.Get(c.name)
		if m == nil {
			t.Errorf("registry missing %s", c.name)
			continue
		}
		if uint64(m.Value) != c.want {
			t.Errorf("%s = %v, accessor says %d", c.name, m.Value, c.want)
		}
		if c.want == 0 && c.name != "netem_dropped_packets_total" {
			t.Errorf("%s unexpectedly zero (degenerate check)", c.name)
		}
	}
}

// TestOnBarrierSerialRuns pins that serial (unsharded) simulators tick
// observers at the end of every Run/RunUntil call — their quiescent
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
