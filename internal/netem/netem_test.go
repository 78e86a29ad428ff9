package netem

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

var simStart = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// mkUDP builds a serialized IPv4/UDP packet for tests.
func mkUDP(t testing.TB, src, dst netip.Addr, payload []byte) []byte {
	t.Helper()
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: 1000, DstPort: 2000, PseudoSrc: src, PseudoDst: dst},
	)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleOrdering(t *testing.T) {
	s := NewSimulator(simStart, 1)
	var order []int
	s.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	s.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(1*time.Millisecond, func() { order = append(order, 11) }) // same time: FIFO by seq
	s.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := s.Now(); !got.Equal(simStart.Add(3 * time.Millisecond)) {
		t.Errorf("clock = %v", got)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewSimulator(simStart, 1)
	fired := false
	s.Schedule(10*time.Millisecond, func() { fired = true })
	s.RunUntil(simStart.Add(5 * time.Millisecond))
	if fired {
		t.Error("event fired early")
	}
	if !s.Now().Equal(simStart.Add(5 * time.Millisecond)) {
		t.Errorf("clock = %v", s.Now())
	}
	s.RunFor(5 * time.Millisecond)
	if !fired {
		t.Error("event did not fire at its time")
	}
}

func TestDirectLinkDelivery(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "ispA", addr("10.0.0.1"))
	b := s.MustAddNode("b", "ispB", addr("10.0.0.2"))
	s.Connect(a, b, LinkConfig{Delay: 5 * time.Millisecond})
	s.BuildRoutes()

	var deliveredAt time.Time
	var got []byte
	// Handlers get a view of the pooled buffer: clone to keep it.
	b.SetHandler(func(now time.Time, pkt []byte) { deliveredAt = now; got = bytes.Clone(pkt) })

	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), []byte("hi"))
	if err := a.Send(pkt); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if want := simStart.Add(5 * time.Millisecond); !deliveredAt.Equal(want) {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if got := s.met.delivered.Value(); got != 1 {
		t.Errorf("netem_delivered_packets_total = %d", got)
	}
}

func TestSerializationDelay(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	// 1 Mbps: a 125-byte packet takes exactly 1ms to serialize.
	s.Connect(a, b, LinkConfig{Delay: 2 * time.Millisecond, RateBps: 1e6})
	s.BuildRoutes()

	var deliveredAt time.Time
	b.SetHandler(func(now time.Time, pkt []byte) { deliveredAt = now })

	payload := make([]byte, 125-wire.IPv4HeaderLen-wire.UDPHeaderLen)
	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), payload)
	if len(pkt) != 125 {
		t.Fatalf("test packet = %d bytes", len(pkt))
	}
	if err := a.Send(pkt); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if want := simStart.Add(3 * time.Millisecond); !deliveredAt.Equal(want) {
		t.Errorf("delivered at %v, want %v (1ms serialize + 2ms prop)", deliveredAt, want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	// Slow link, queue of 2.
	s.Connect(a, b, LinkConfig{Delay: time.Millisecond, RateBps: 1e4, QueueLen: 2})
	s.BuildRoutes()

	n := 0
	b.SetHandler(func(time.Time, []byte) { n++ })
	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), make([]byte, 100))
	// Burst of 6: 1 transmitting + 2 queued accepted; 3 dropped.
	for i := 0; i < 6; i++ {
		_ = a.Send(pkt)
	}
	s.Run()
	if n != 3 {
		t.Errorf("delivered %d, want 3", n)
	}
	if dropped := s.met.linkQDrop.Value(); dropped != 3 {
		t.Errorf("queue drops = %d, want 3", dropped)
	}
	if s.Dropped() != 3 {
		t.Errorf("global dropped = %d", s.Dropped())
	}
}

func TestMultiHopRoutingAndTTL(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	var got []byte
	b.SetHandler(func(_ time.Time, pkt []byte) { got = bytes.Clone(pkt) })
	if err := a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), []byte("x"))); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got == nil {
		t.Fatal("not delivered across two hops")
	}
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(got); err != nil {
		t.Fatalf("delivered packet corrupt: %v", err)
	}
	if ip.TTL != wire.MaxTTL-1 {
		t.Errorf("TTL = %d, want %d (one forwarding hop)", ip.TTL, wire.MaxTTL-1)
	}
}

func TestTTLExhaustion(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	delivered := false
	b.SetHandler(func(time.Time, []byte) { delivered = true })

	buf := wire.NewSerializeBuffer(28, 0)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 1, Protocol: wire.ProtoUDP, Src: addr("10.0.0.1"), Dst: addr("10.0.1.1")},
		&wire.UDP{SrcPort: 1, DstPort: 2},
	); err != nil {
		t.Fatal(err)
	}
	_ = a.Send(buf.Bytes())
	s.Run()
	if delivered {
		t.Error("TTL=1 packet should die at the router")
	}
	if s.Dropped() != 1 {
		t.Errorf("dropped = %d", s.Dropped())
	}
}

func TestNoRoute(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	s.BuildRoutes()
	err := a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.99.0.1"), nil))
	if err != ErrNoRoute {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestAnycastNearestMember(t *testing.T) {
	s := NewSimulator(simStart, 1)
	src := s.MustAddNode("src", "", addr("10.0.0.1"))
	near := s.MustAddNode("near", "", addr("10.1.0.1"))
	far := s.MustAddNode("far", "", addr("10.2.0.1"))
	s.Connect(src, near, LinkConfig{Delay: 1 * time.Millisecond})
	s.Connect(src, far, LinkConfig{Delay: 50 * time.Millisecond})
	s.Connect(near, far, LinkConfig{Delay: 1 * time.Millisecond})
	any := addr("10.255.0.1")
	s.AddAnycast(any, near, far)
	s.BuildRoutes()

	var hit string
	near.SetHandler(func(time.Time, []byte) { hit = "near" })
	far.SetHandler(func(time.Time, []byte) { hit = "far" })
	if err := src.Send(mkUDP(t, addr("10.0.0.1"), any, nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if hit != "near" {
		t.Errorf("anycast delivered to %q, want \"near\"", hit)
	}
	if got := s.anycast[any]; len(got) != 2 {
		t.Errorf("anycast members = %d", len(got))
	}
}

// TestAnycastMembershipIsASet: a node carries one bit saying it serves
// some anycast address; which addresses is still the simulator's table.
// The path is src — r — m1 — m2, every group routed toward m2.
func TestAnycastMembershipIsASet(t *testing.T) {
	s := NewSimulator(simStart, 1)
	src := s.MustAddNode("src", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.2"))
	m1 := s.MustAddNode("m1", "", addr("10.0.0.3"))
	m2 := s.MustAddNode("m2", "", addr("10.0.0.4"))
	g1, g2, g3, g4 := addr("10.255.0.1"), addr("10.255.0.2"), addr("10.255.0.3"), addr("10.255.0.4")
	path := []*Node{src, r, m1, m2}
	for i := 0; i+1 < len(path); i++ {
		l := s.Connect(path[i], path[i+1], LinkConfig{Delay: time.Millisecond})
		path[i].AddRoute(netip.MustParsePrefix("10.255.0.0/24"), l)
	}
	s.AddAnycast(g1, m1)
	s.AddAnycast(g2, m1, m2)
	s.AddAnycast(g3, m2)
	s.AddAnycast(g4, m2)
	var hit string
	for _, n := range path {
		name := n.Name
		n.SetHandler(func(time.Time, []byte) { hit += name })
	}
	for _, tc := range []struct {
		name     string
		dst      netip.Addr
		join     *Node // made a member of dst's group before the send
		want     string
		forwards uint64
	}{
		{"member delivers, non-member on the path forwards", g1, nil, "m1", 1},
		{"a node in two groups serves the second too", g2, nil, "m1", 1},
		{"a member forwards another group's address", g3, nil, "m2", 2},
		{"a member added between runs terminates the flow", g3, m1, "m1", 1},
		{"a node that joined with no address of its own", g4, r, "r", 0},
		{"and still forwards the groups it did not join", g1, nil, "m1", 1},
	} {
		if tc.join != nil {
			s.AddAnycast(tc.dst, tc.join)
		}
		hit = ""
		before := s.Forwarded()
		if err := src.Send(mkUDP(t, src.Addr(), tc.dst, nil)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.RunFor(10 * time.Millisecond)
		if fwd := s.Forwarded() - before; hit != tc.want || fwd != tc.forwards {
			t.Errorf("%s: delivered at %q after %d forwards, want %q after %d", tc.name, hit, fwd, tc.want, tc.forwards)
		}
	}
}

func TestTransitHookDrop(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "evilISP", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	r.AddTransitHook(func(_ time.Time, _ *Node, pkt []byte) Verdict {
		return Verdict{Drop: true}
	})
	delivered := false
	b.SetHandler(func(time.Time, []byte) { delivered = true })
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), nil))
	s.Run()
	if delivered {
		t.Error("policy-dropped packet was delivered")
	}
}

func TestTransitHookDelay(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "evilISP", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	r.AddTransitHook(func(time.Time, *Node, []byte) Verdict {
		return Verdict{Delay: 100 * time.Millisecond}
	})
	var at time.Time
	b.SetHandler(func(now time.Time, _ []byte) { at = now })
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), nil))
	s.Run()
	want := simStart.Add(102 * time.Millisecond)
	if !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestTraceEvents(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	fr := obs.NewFlightRecorder(obs.FlightConfig{RingSize: 16, SampleFlows: 1})
	s.AttachFlightRecorder(fr)
	b.SetHandler(func(time.Time, []byte) {})
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), nil))
	s.Run()
	counts := map[TraceKind]int{}
	for _, ev := range fr.Events() {
		counts[TraceKind(ev.Kind)]++
	}
	if len(counts) != 3 || counts[TraceSend] != 1 || counts[TraceForward] != 1 || counts[TraceDeliver] != 1 {
		t.Errorf("trace counts = %v", counts)
	}
}

func TestDuplicateNodeAndAddr(t *testing.T) {
	s := NewSimulator(simStart, 1)
	s.MustAddNode("a", "", addr("10.0.0.1"))
	if _, err := s.AddNode("a", "", addr("10.0.0.9")); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.AddNode("b", "", addr("10.0.0.1")); err == nil {
		t.Error("duplicate address accepted")
	}
}

func TestAddRemoveAddr(t *testing.T) {
	s := NewSimulator(simStart, 1)
	n := s.MustAddNode("n", "", addr("10.0.0.1"))
	dyn := addr("10.0.0.77")
	if err := n.AddAddr(dyn); err != nil {
		t.Fatal(err)
	}
	if s.byAddr[dyn] != n || !n.HasAddr(dyn) {
		t.Error("dynamic address not registered")
	}
	if err := n.AddAddr(dyn); err == nil {
		t.Error("re-adding same address should fail")
	}
	n.RemoveAddr(dyn)
	if s.byAddr[dyn] != nil || n.HasAddr(dyn) {
		t.Error("dynamic address not released")
	}
}

func TestAsymmetricLink(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	s.ConnectAsym(a, b,
		LinkConfig{Delay: 1 * time.Millisecond},
		LinkConfig{Delay: 30 * time.Millisecond})
	s.BuildRoutes()

	var atB, atA time.Time
	b.SetHandler(func(now time.Time, pkt []byte) {
		atB = now
		_ = b.Send(mkUDP(t, addr("10.0.0.2"), addr("10.0.0.1"), nil))
	})
	a.SetHandler(func(now time.Time, _ []byte) { atA = now })
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), nil))
	s.Run()
	if !atB.Equal(simStart.Add(time.Millisecond)) {
		t.Errorf("forward at %v", atB)
	}
	if !atA.Equal(simStart.Add(31 * time.Millisecond)) {
		t.Errorf("reverse at %v, want +31ms", atA)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		s := NewSimulator(simStart, 42)
		a := s.MustAddNode("a", "", addr("10.0.0.1"))
		b := s.MustAddNode("b", "", addr("10.0.0.2"))
		s.Connect(a, b, LinkConfig{Delay: time.Millisecond, RateBps: 1e6, QueueLen: 4})
		s.BuildRoutes()
		var times []time.Duration
		b.SetHandler(func(now time.Time, _ []byte) { times = append(times, now.Sub(simStart)) })
		for i := 0; i < 3; i++ {
			jitter := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.Schedule(jitter, func() {
				_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), make([]byte, 64)))
			})
		}
		s.Run()
		return times
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("replay diverged at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestFIFOQueueBasics(t *testing.T) {
	q := NewFIFOQueue(2)
	p1 := &Packet{Size: 1}
	p2 := &Packet{Size: 2}
	p3 := &Packet{Size: 3}
	if !q.Enqueue(p1) || !q.Enqueue(p2) {
		t.Fatal("enqueue within capacity failed")
	}
	if q.Enqueue(p3) {
		t.Error("enqueue beyond capacity succeeded")
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d", q.Len())
	}
	if q.Dequeue() != p1 || q.Dequeue() != p2 || q.Dequeue() != nil {
		t.Error("FIFO order violated")
	}
	// Wrap both indexes around a capacity that is not a power of two.
	q = NewFIFOQueue(3)
	q.Enqueue(p1)
	q.Enqueue(p2)
	if q.Dequeue() != p1 {
		t.Error("FIFO order violated")
	}
	if !q.Enqueue(p3) || !q.Enqueue(p1) || q.Enqueue(p2) {
		t.Error("wrapped enqueue: want two accepted, the third refused")
	}
	if q.Dequeue() != p2 || q.Dequeue() != p3 || q.Dequeue() != p1 || q.Dequeue() != nil || q.Len() != 0 {
		t.Error("FIFO order violated across the wrap")
	}
}

func TestSendMalformed(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	if err := a.Send([]byte{1, 2, 3}); err != ErrMalformedIPv4 {
		t.Errorf("err = %v", err)
	}
}

// TestEdgeTimesAreStartShifted pins the clock's exported edge: the
// engine keeps integer nanoseconds, but every time.Time it hands out —
// handler, transit hook, barrier, Now — is start shifted by the elapsed
// virtual time, in start's own location.
func TestEdgeTimesAreStartShifted(t *testing.T) {
	start := simStart.In(time.FixedZone("sim", -7*3600))
	s := NewSimulator(start, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	s.Connect(a, r, LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, LinkConfig{Delay: 2 * time.Millisecond})
	s.BuildRoutes()
	check := func(what string, got time.Time, elapsed time.Duration) {
		t.Helper()
		if want := start.Add(elapsed); got != want || got.String() != want.String() {
			t.Errorf("%s time = %v, want %v", what, got, want)
		}
	}
	r.AddTransitHook(func(now time.Time, _ *Node, _ []byte) Verdict {
		check("hook", now, time.Millisecond)
		return Deliver
	})
	delivered := false
	b.SetHandler(func(now time.Time, _ []byte) {
		check("handler", now, 3*time.Millisecond)
		delivered = true
	})
	s.OnBarrier(func(now time.Time) { check("barrier", now, 5*time.Millisecond) })
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), nil))
	if at, ok := s.NextEventAt(); !ok {
		t.Fatal("no pending event after Send")
	} else {
		check("next event", at, 0)
	}
	s.RunUntil(start.Add(5 * time.Millisecond))
	check("Now", s.Now(), 5*time.Millisecond)
	if !delivered {
		t.Fatal("packet not delivered")
	}
}
