package netem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"netneutral/internal/obs"
)

// parWorldResult is everything a parallel run must reproduce exactly.
type parWorldResult struct {
	// trace is the complete flight-recorder stream: every packet event
	// in merged (time, shard, seq) order with all attribution fields.
	trace []obs.TraceRec
	// received logs, per receiving node (hosts, then outside1), each
	// delivery's virtual time and packet bytes as its handler saw them.
	received  [][]byte
	delivered uint64
	forwarded uint64
	dropped   uint64
	events    uint64
}

// runParWorld builds a random sharded fan-out from seed, drives random
// bidirectional traffic (downstream from outside, host-to-host chatter
// inside subtrees, upstream from hosts to outside), and runs it at the
// given worker count — partly in RunFor chunks to exercise partial
// epochs, then drained with Run — under a lossless flight recorder
// (SampleFlows 1, ring larger than the run).
func runParWorld(t testing.TB, seed int64, workers int) *parWorldResult {
	t.Helper()
	topoRng := rand.New(rand.NewSource(seed))
	hosts := 60 + topoRng.Intn(200)
	hpe := 16 + topoRng.Intn(48)
	d := func() time.Duration {
		return time.Duration(500+topoRng.Intn(1500)) * time.Microsecond
	}
	sim := NewSimulator(simStart, seed)
	f, err := BuildFanout(sim, FanoutSpec{
		Hosts: hosts, HostsPerEdge: hpe, Outside: 2,
		ShardSubtrees: true,
		HostLink:      LinkConfig{Delay: d()},
		EdgeLink:      LinkConfig{Delay: d(), RateBps: 50e6, QueueLen: 64},
		TransitLink:   LinkConfig{Delay: d(), RateBps: 80e6, QueueLen: 64},
		OutsideLink:   LinkConfig{Delay: d()},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(workers)

	fr := obs.NewFlightRecorder(obs.FlightConfig{RingSize: 1 << 17, SampleFlows: 1})
	sim.AttachFlightRecorder(fr)
	// Each receiver appends to its own log, and a node's handler only
	// ever runs on the node's shard, so the logs need no locking.
	res := &parWorldResult{received: make([][]byte, hosts+1)}
	capture := func(node *Node, slot int) {
		node.SetHandler(func(now time.Time, pkt []byte) {
			log := binary.BigEndian.AppendUint64(res.received[slot], uint64(now.UnixNano()))
			res.received[slot] = append(log, pkt...)
		})
	}
	for i, h := range f.Hosts {
		capture(h, i)
	}
	capture(f.Outside[1], hosts)

	const total = 400 * time.Millisecond
	end := simStart.Add(total)
	// A jittered self-rescheduling sender anchored to its node: the
	// shape every shard-pinned source in the tree uses.
	sender := func(node *Node, pkt []byte, meanGap time.Duration) {
		var seq uint64
		var step func()
		step = func() {
			if node.Now().After(end) {
				return
			}
			pkt[len(pkt)-1] = byte(seq)
			seq++
			_ = node.Send(pkt)
			gap := meanGap/2 + time.Duration(node.Rand().Int63n(int64(meanGap)))
			node.Schedule(gap, step)
		}
		node.Schedule(time.Duration(node.Rand().Int63n(int64(meanGap))), step)
	}

	// Downstream: outside0 sprays every 3rd host.
	for i := 0; i < hosts; i += 3 {
		sender(f.Outside[0], mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), []byte{byte(i), 0}), 9*time.Millisecond)
	}
	// Subtree chatter: every 4th host talks to a neighbor under the
	// same edge (never leaves the shard).
	for i := 0; i+1 < hosts; i += 4 {
		j := i + 1
		if i/hpe != j/hpe {
			continue
		}
		sender(f.Hosts[i], mkUDP(t, f.HostAddr(i), f.HostAddr(j), []byte{0xCC, 0}), 6*time.Millisecond)
	}
	// Upstream: every 7th host talks to outside1 (crosses every tier).
	for i := 0; i < hosts; i += 7 {
		sender(f.Hosts[i], mkUDP(t, f.HostAddr(i), f.OutsideAddr(1), []byte{0xDD, 0}), 11*time.Millisecond)
	}

	// Run in chunks (partial epochs), then drain in-flight packets.
	sim.RunFor(total / 3)
	sim.RunFor(total / 3)
	sim.Run()

	if ev := fr.Evicted(); ev != 0 {
		t.Fatalf("ring evicted %d events; grow RingSize so the stream stays complete", ev)
	}
	res.trace = fr.Events()
	res.delivered = sim.Delivered()
	res.forwarded = sim.Forwarded()
	res.dropped = sim.Dropped()
	res.events = sim.EventsProcessed()
	return res
}

// requireSameWorld fails unless b reproduces a exactly: every engine
// counter, the complete recorder stream (time, node, kind, size, flow,
// journey, every attribution field), and the bytes each receiver saw.
func requireSameWorld(t *testing.T, label string, a, b *parWorldResult) {
	t.Helper()
	if a.delivered != b.delivered || a.forwarded != b.forwarded ||
		a.dropped != b.dropped || a.events != b.events {
		t.Fatalf("%s counters diverged: {d:%d f:%d dr:%d ev:%d} vs {d:%d f:%d dr:%d ev:%d}", label,
			a.delivered, a.forwarded, a.dropped, a.events,
			b.delivered, b.forwarded, b.dropped, b.events)
	}
	if len(a.trace) != len(b.trace) {
		t.Fatalf("%s trace length %d vs %d", label, len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("%s trace[%d] diverged:\n %+v\n %+v", label, i, a.trace[i], b.trace[i])
		}
	}
	for i := range a.received {
		if !bytes.Equal(a.received[i], b.received[i]) {
			t.Fatalf("%s receiver %d saw different deliveries (%d vs %d log bytes)",
				label, i, len(a.received[i]), len(b.received[i]))
		}
	}
}

// TestParallelTraceEquivalence is the one-worker-vs-many property test:
// on random sharded fan-outs with random traffic, the complete
// flight-recorder stream, the delivered packet bytes and every engine
// counter must be identical at workers 1, 2 and 4.
func TestParallelTraceEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			one := runParWorld(t, seed, 1)
			var received int
			for _, log := range one.received {
				received += len(log)
			}
			if one.delivered == 0 || received == 0 || uint64(len(one.trace)) < one.delivered {
				t.Fatalf("degenerate world: delivered=%d received=%dB trace=%d",
					one.delivered, received, len(one.trace))
			}
			for _, workers := range []int{2, 4} {
				requireSameWorld(t, fmt.Sprintf("workers=%d", workers), one, runParWorld(t, seed, workers))
			}
		})
	}
}

// TestParallelReplayIdentical pins that two runs at the same worker
// count are bit-identical too (the -seed discipline, sharded).
func TestParallelReplayIdentical(t *testing.T) {
	requireSameWorld(t, "replay", runParWorld(t, 9, 4), runParWorld(t, 9, 4))
}

// TestShardRNGIndependence pins the per-shard RNG derivation: shard 0
// keeps the root seed's stream (single-shard compatibility) and other
// shards draw from independent splitmix-derived streams that do not
// depend on the worker count.
func TestShardRNGIndependence(t *testing.T) {
	mk := func(workers int) (*Simulator, *Fanout) {
		sim := NewSimulator(simStart, 5)
		f, err := BuildFanout(sim, FanoutSpec{Hosts: 40, HostsPerEdge: 16, ShardSubtrees: true})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetWorkers(workers)
		return sim, f
	}
	sim, f := mk(1)
	sim2, f2 := mk(4)
	want := rand.New(rand.NewSource(5)).Int63()
	if got := sim.Rand().Int63(); got != want {
		t.Error("shard 0 stream diverged from the root seed's (pre-shard compatibility)")
	}
	if got := sim2.Rand().Int63(); got != want {
		t.Error("shard 0 stream depends on worker count")
	}
	if f.Hosts[0].Rand().Int63() != f2.Hosts[0].Rand().Int63() {
		t.Error("host shard stream depends on worker count")
	}
	if f.Hosts[0].ShardID() == f.Hosts[len(f.Hosts)-1].ShardID() {
		t.Fatal("expected hosts across multiple shards")
	}
	if f.Hosts[0].Rand() == f.Hosts[len(f.Hosts)-1].Rand() {
		t.Error("distinct shards share one RNG (the PR-4 determinism hazard)")
	}
	if f.Transit.ShardID() != 0 || f.Border.ShardID() != 1 {
		t.Errorf("core shard plan: transit=%d border=%d, want 0/1", f.Transit.ShardID(), f.Border.ShardID())
	}
	_ = f2
}
