package netem

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// TestPacketPoolReuse: forwarding the same traffic twice must reuse the
// pooled buffers rather than allocating fresh ones.
func TestPacketPoolReuse(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	s.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()
	b.SetHandler(func(time.Time, []byte) {})
	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), make([]byte, 64))

	for i := 0; i < 50; i++ {
		if err := a.Send(pkt); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	allocated, gets := s.PoolStats()
	if gets != 50 {
		t.Fatalf("gets = %d, want 50", gets)
	}
	if allocated > 2 {
		t.Errorf("allocated %d buffers for sequential sends, want <= 2 (pool not reusing)", allocated)
	}
}

// TestPacketPoolPoisonsReleasedBuffers is the pool-lifetime contract
// test: a handler (or transit hook) that retains its packet view past the
// call must observe poisoned bytes in debug mode, not silently alias a
// recycled buffer. Run under -race like the rest of the suite; the event
// loop is single-threaded so the detector also proves no hidden sharing.
func TestPacketPoolPoisonsReleasedBuffers(t *testing.T) {
	s := NewSimulator(simStart, 1)
	s.SetPoolDebug(true)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	var retainedByHook, retainedByHandler []byte
	r.AddTransitHook(func(_ time.Time, _ *Node, pkt []byte) Verdict {
		retainedByHook = pkt // BUG under test: retained past the call
		return Deliver
	})
	b.SetHandler(func(_ time.Time, pkt []byte) {
		retainedByHandler = pkt // BUG under test: retained past the call
	})

	payload := bytes.Repeat([]byte{0xAB}, 64)
	if err := a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), payload)); err != nil {
		t.Fatal(err)
	}
	s.Run()

	for name, view := range map[string][]byte{
		"transit hook": retainedByHook, "handler": retainedByHandler,
	} {
		if view == nil {
			t.Fatalf("%s never saw the packet", name)
		}
		for i, c := range view {
			if c != poisonByte {
				t.Fatalf("%s retained a live view: byte %d = %#x, want %#x poison",
					name, i, c, poisonByte)
			}
		}
	}
}

// TestPacketDoubleReleasePanics: a packet has one owner, so a second
// Release of a pooled packet is a bug; it panics rather than putting the
// buffer on the freelist twice. An empty packet, whose window is zero
// bytes, is caught too.
func TestPacketDoubleReleasePanics(t *testing.T) {
	s := NewSimulator(simStart, 1)
	n := s.MustAddNode("a", "")
	for _, b := range [][]byte{{}, {1}} { // the empty one first, on a fresh buffer
		p := n.NewPacket(b)
		p.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("double release of a %d-byte packet did not panic", len(b))
				}
			}()
			p.Release()
		}()
	}
}

// TestPolicyDelayNoCopy: a delayed packet resumes with the same pooled
// buffer (the seed engine cloned here).
func TestPolicyDelayNoCopy(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()
	r.AddTransitHook(func(time.Time, *Node, []byte) Verdict {
		return Verdict{Delay: 50 * time.Millisecond}
	})
	delivered := false
	b.SetHandler(func(time.Time, []byte) { delivered = true })
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), make([]byte, 32)))
	s.Run()
	if !delivered {
		t.Fatal("delayed packet lost")
	}
	if allocated, _ := s.PoolStats(); allocated > 1 {
		t.Errorf("delay path allocated %d buffers, want 1 (no clone)", allocated)
	}
}

// TestSetQueueTransfersWaitingPackets: swapping the queue discipline
// mid-simulation must carry waiting packets over (or drop-and-release
// what the new discipline refuses) — never leak pooled buffers.
func TestSetQueueTransfersWaitingPackets(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	// Slow link so a burst queues up behind the first transmission.
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond, RateBps: 1e4, QueueLen: 8})
	s.BuildRoutes()
	n := 0
	b.SetHandler(func(time.Time, []byte) { n++ })
	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), make([]byte, 100))
	for i := 0; i < 6; i++ {
		_ = a.Send(pkt)
	}
	if got := l.dir(a).queue.Len(); got != 5 {
		t.Fatalf("queued = %d, want 5", got)
	}
	// Swap to a smaller queue: 2 transfer, 3 are dropped and released.
	small := NewFIFOQueue(2)
	if err := l.SetQueue(a, small); err != nil {
		t.Fatal(err)
	}
	if got := l.dir(a).queue.Len(); got != 2 {
		t.Fatalf("after swap queued = %d, want 2", got)
	}
	// Idempotent re-install of the same queue must be a no-op, not a
	// self-transfer livelock.
	if err := l.SetQueue(a, small); err != nil {
		t.Fatal(err)
	}
	if got := l.dir(a).queue.Len(); got != 2 {
		t.Fatalf("after idempotent swap queued = %d, want 2", got)
	}
	s.Run()
	if n != 3 {
		t.Errorf("delivered %d, want 3 (1 in flight + 2 transferred)", n)
	}
	if dropped := family(s, "netem_link_queue_drops_total"); dropped != 3 {
		t.Errorf("queue drops = %d, want 3", dropped)
	}
	// No leak: every checked-out buffer came back to the pool.
	s.SetPoolDebug(true)
	allocated, gets := s.PoolStats()
	if gets != 6 || allocated > 6 {
		t.Errorf("pool stats allocated=%d gets=%d", allocated, gets)
	}
	free := len(s.shards[0].pool.free)
	if free != int(allocated) {
		t.Errorf("pool free=%d, want %d (leaked %d buffers)", free, allocated, int(allocated)-free)
	}
}

// TestForwardingZeroAlloc enforces the README's forwarding-path claim:
// once the pool and event heap are warm, carrying a packet across
// several hops allocates nothing — with no flight recorder attached,
// and with per-hop delay attribution armed by a cause-tagged policing
// hook that delays every packet on transit (still no recorder, so the
// attribution plumbing must be free on the allocator). Nor does the
// first packet over a link that has never carried one: an idle line
// builds no queue.
func TestForwardingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	t.Run("fresh-links", func(t *testing.T) {
		const runs = 200
		s := NewSimulator(simStart, 1)
		hub := s.MustAddNode("hub", "", addr("10.0.0.1"))
		delivered := 0
		count := func(time.Time, []byte) { delivered++ }
		var pkts [][]byte
		for i := 0; i < runs+2; i++ {
			leaf := s.MustAddNode(fmt.Sprintf("leaf%d", i), "", uintToIPv4(ipv4ToUint(addr("10.1.0.0"))+uint32(i)))
			leaf.SetHandler(count)
			hub.AddRoute(netip.PrefixFrom(leaf.Addr(), 32), s.Connect(hub, leaf, LinkConfig{Delay: time.Millisecond, RateBps: 100e6}))
			pkts = append(pkts, mkUDP(t, hub.Addr(), leaf.Addr(), []byte("first packet")))
		}
		next := 0
		send := func() {
			if err := hub.Send(pkts[next]); err != nil {
				t.Fatal(err)
			}
			next++
			s.Run()
		}
		send() // warm the pool, the event lanes and the hub's sorted FIB
		if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
			t.Errorf("the first packet over a fresh idle link allocates %.1f times, want 0", allocs)
		}
		if delivered != runs+2 {
			t.Errorf("delivered %d packets, want %d", delivered, runs+2)
		}
	})
	for _, tc := range []struct {
		name string
		hook TransitHook
	}{
		{name: "plain"},
		{name: "attribution-armed", hook: func(time.Time, *Node, []byte) Verdict {
			return Verdict{Delay: 200 * time.Microsecond, Cause: CauseClassDelay, Class: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSimulator(simStart, 1)
			a := s.MustAddNode("a", "", addr("10.0.0.1"))
			r1 := s.MustAddNode("r1", "", addr("10.0.0.254"))
			r2 := s.MustAddNode("r2", "", addr("10.0.1.254"))
			c := s.MustAddNode("c", "", addr("10.0.1.1"))
			s.Connect(a, r1, LinkConfig{Delay: time.Millisecond})
			s.Connect(r1, r2, LinkConfig{Delay: time.Millisecond, RateBps: 100e6})
			s.Connect(r2, c, LinkConfig{Delay: time.Millisecond})
			s.BuildRoutes()
			if tc.hook != nil {
				r1.AddTransitHook(tc.hook)
				r2.AddTransitHook(tc.hook)
			}
			delivered := 0
			c.SetHandler(func(time.Time, []byte) { delivered++ })
			pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), []byte("steady state"))
			send := func() {
				if err := a.Send(pkt); err != nil {
					t.Fatal(err)
				}
				s.Run()
			}
			send() // warm the pool, the heap and the sorted FIBs
			const runs = 200
			if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
				t.Errorf("forwarding a packet over 3 hops allocates %.1f times, want 0", allocs)
			}
			if delivered != runs+2 { // warm-up + AllocsPerRun's own warm-up call
				t.Errorf("delivered %d packets, want %d", delivered, runs+2)
			}
		})
	}
}
