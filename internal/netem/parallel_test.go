package netem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/obs"
)

// parWorldResult is everything a parallel run must reproduce exactly.
type parWorldResult struct {
	// trace is the complete flight-recorder stream: every packet event
	// in merged (time, shard, seq) order with all attribution fields.
	trace []obs.TraceRec
	// received logs, per receiving node (hosts, then outside1, the border
	// and the two edges serving the second anycast group), each delivery's
	// virtual time and packet bytes as its handler saw them.
	received  [][]byte
	delivered uint64
	forwarded uint64
	dropped   uint64
	events    uint64
}

// runParWorld builds a random sharded fan-out from seed — host links
// paced on some seeds, unpaced on others, so idle-line and busy-line
// transmissions both occur at every tier — drives random bidirectional
// traffic (downstream from outside, host-to-host chatter inside subtrees,
// upstream from hosts to outside, and packets to two anycast groups: the
// border's, and one served by the first and last edge that every other
// edge's hosts reach through a non-member border), and runs it at the
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
		HostLink:      LinkConfig{Delay: d(), RateBps: float64(topoRng.Intn(2)) * 30e6},
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
	res := &parWorldResult{received: make([][]byte, hosts+4)}
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
	// A second anycast group at the first and last edge: a host under
	// either is served one hop up; everyone else's packet climbs to the
	// border — itself a member, but of the other group — which forwards it
	// down to the first edge.
	group2 := addr("10.200.0.2")
	first, last := f.Edges[0], f.Edges[len(f.Edges)-1]
	sim.AddAnycast(group2, first, last)
	f.Border.AddRoute(netip.PrefixFrom(group2, 32), f.EdgeLinks[0])
	capture(f.Border, hosts+1)
	capture(first, hosts+2)
	if last != first {
		capture(last, hosts+3)
	}

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

	// Anycast: outside1 and every 9th host talk to the border's group,
	// every 5th host to the edges' group.
	sender(f.Outside[1], mkUDP(t, f.OutsideAddr(1), f.Spec.Anycast, []byte{0xA1, 0}), 5*time.Millisecond)
	for i := 0; i < hosts; i += 9 {
		sender(f.Hosts[i], mkUDP(t, f.HostAddr(i), f.Spec.Anycast, []byte{0xA1, 0}), 13*time.Millisecond)
	}
	for i := 0; i < hosts; i += 5 {
		sender(f.Hosts[i], mkUDP(t, f.HostAddr(i), group2, []byte{0xA2, 0}), 12*time.Millisecond)
	}

	// Run in chunks (partial epochs), then drain in-flight packets.
	sim.RunFor(total / 3)
	sim.RunFor(total / 3)
	sim.Run()

	if ev := fr.Evicted(); ev != 0 {
		t.Fatalf("ring evicted %d events; grow RingSize so the stream stays complete", ev)
	}
	res.trace = fr.Events()
	res.delivered = sim.met.delivered.Value()
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
			if n := len(one.received); len(one.received[n-3]) == 0 || len(one.received[n-2]) == 0 {
				t.Fatalf("degenerate world: anycast deliveries border=%dB first edge=%dB",
					len(one.received[n-3]), len(one.received[n-2]))
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

// TestBarrierDrainsOnlyTouchedPairs pins the barrier's cost model and its
// order on six one-node shards joined by six 1 ms links, everything sent
// at t=0. Epoch 1 stages the departures, epoch 2 delivers them on foreign
// shards, which parks every buffer homebound: six pairs speak by event,
// then the six reverse pairs by buffer alone — shard 5 never sends shard 1
// an event, yet must hand its buffers back. The other 48 possible
// (source, destination) visits of the two barriers never happen. Arrivals
// tie on time, so n3 and n0 must see their senders in ascending shard
// order although shard 1 touched its destinations as 5, 0, 3.
func TestBarrierDrainsOnlyTouchedPairs(t *testing.T) {
	const burst = 30 // 6 senders x 30 packets clears the fan-out threshold at 4 workers
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sim := NewSimulator(simStart, 1)
			sim.SetShardCount(6)
			sim.SetWorkers(workers)
			var n [6]*Node
			for i := range n {
				n[i] = sim.MustAddNode(fmt.Sprintf("n%d", i), "", addr(fmt.Sprintf("10.0.0.%d", i+1)))
				n[i].SetShard(i)
			}
			sends := [][2]int{{1, 5}, {1, 0}, {1, 3}, {2, 0}, {4, 3}, {0, 3}}
			for _, p := range sends {
				l := sim.Connect(n[p[0]], n[p[1]], LinkConfig{Delay: time.Millisecond})
				n[p[0]].AddRoute(netip.PrefixFrom(n[p[1]].Addr(), 32), l)
			}
			var from [6][]byte // per receiver: the last address byte of each sender, in delivery order
			for i := range n {
				i := i
				n[i].SetHandler(func(_ time.Time, pkt []byte) { from[i] = append(from[i], pkt[15]) })
			}
			round := func() {
				for _, p := range sends {
					pkt := mkUDP(t, n[p[0]].Addr(), n[p[1]].Addr(), nil)
					for k := 0; k < burst; k++ {
						if err := n[p[0]].Send(pkt); err != nil {
							t.Fatal(err)
						}
					}
				}
				sim.Run()
			}
			round()
			if e, d, s := sim.met.epochs.Value(), sim.met.mailDrained.Value(), sim.met.mailSilent.Value(); e != 2 || d != 12 || s != 48 {
				t.Errorf("epochs=%d drained=%d silent=%d, want 2, 12 (6 pairs by event, 6 by buffer), 48", e, d, s)
			}
			want := func(senders ...byte) []byte {
				var w []byte
				for _, s := range senders {
					w = append(w, bytes.Repeat([]byte{s + 1}, burst)...)
				}
				return w
			}
			if !bytes.Equal(from[3], want(0, 1, 4)) || !bytes.Equal(from[0], want(1, 2)) || !bytes.Equal(from[5], want(1)) {
				t.Errorf("merge order is not (time, source shard, seq): n3 saw %v, n0 %v, n5 %v", from[3], from[0], from[5])
			}
			// Every buffer went home at the barrier after it died, shard 5's
			// included, so a second round allocates none.
			if free := len(sim.shards[1].pool.free); free != 3*burst {
				t.Errorf("shard 1 has %d of its %d buffers back", free, 3*burst)
			}
			round()
			if alloc, gets := sim.PoolStats(); alloc != 6*burst || gets != 12*burst {
				t.Errorf("allocated %d buffers for %d checkouts, want %d: homebound buffers were not repatriated", alloc, gets, 6*burst)
			}
		})
	}
}
