package netem

import (
	"bytes"
	"errors"
	"net/netip"
	"slices"
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
	pkt, err := wire.AppendUDP(nil, src, dst, 1000, 2000, payload)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
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

func TestRunForAdvancesClock(t *testing.T) {
	s := NewSimulator(simStart, 1)
	fired := false
	s.Schedule(10*time.Millisecond, func() { fired = true })
	s.RunFor(5 * time.Millisecond)
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
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
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
	if got := family(s, "netem_delivered_packets_total"); got != 1 {
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
	if dropped := family(s, "netem_link_queue_drops_total"); dropped != 3 {
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

	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), nil)
	pkt[8] = 1 // TTL
	if err := wire.RepairChecksum(pkt); err != nil {
		t.Fatal(err)
	}
	_ = a.Send(pkt)
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
	for _, m := range []*Node{near, far} {
		if got := m.anycastAddrs(); len(got) != 1 || got[0] != any {
			t.Errorf("%s serves anycast %v, want [%v]", m.Name(), got, any)
		}
	}
}

// TestAnycastMembershipIsASet: a member holds the group addresses it
// serves behind its own, so a hop decides delivery from the node alone,
// and only for the groups that node joined. The path is src — r — m1 —
// m2, every group routed toward m2.
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
		name := n.Name()
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

// TestAnycastAddrsFollowOwn: the group addresses a member holds are not
// its own — Addr, ownAddrs and RemoveAddr see only its own, an address
// added later goes in front of the groups, and joining a group twice
// keeps one copy.
func TestAnycastAddrsFollowOwn(t *testing.T) {
	s := NewSimulator(simStart, 1)
	bare := s.MustAddNode("bare", "")
	m := s.MustAddNode("m", "", addr("10.0.0.1"))
	g1, g2 := addr("10.255.0.1"), addr("10.255.0.2")
	s.AddAnycast(g1, bare, m)
	s.AddAnycast(g2, m)
	s.AddAnycast(g1, m)
	if got := bare.Addr(); got.IsValid() {
		t.Errorf("member with no address of its own: Addr() = %v, want the zero Addr", got)
	}
	if err := m.AddAddr(addr("10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	m.RemoveAddr(g1)
	want := []netip.Addr{addr("10.0.0.1"), addr("10.0.0.2"), g1, g2}
	if !slices.Equal(m.addrList(), want) || m.Addr() != want[0] || !slices.Contains(m.ownAddrs(), want[1]) || slices.Contains(m.ownAddrs(), g1) {
		t.Errorf("member addrs = %v (Addr %v), want %v with the last two not its own", m.addrList(), m.Addr(), want)
	}
}

func TestTransitHookDrop(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
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
	r := s.MustAddNode("r", "", addr("10.0.0.254"))
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
	if _, err := s.AddNode("a", addr("10.0.0.9")); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.AddNode("b", addr("10.0.0.1")); err == nil {
		t.Error("duplicate address accepted")
	}
}

// TestOneAddressOwnership: a host block and a node's addresses answer to
// one ownership check, in both directions and at the top of the address
// space, where a block's end wraps to zero.
func TestOneAddressOwnership(t *testing.T) {
	s := NewSimulator(simStart, 1)
	block := func(first string, n int) error { return s.addHostBlock(addr(first), make([]Node, n), s.shards[0]) }
	if err := block("10.1.0.1", 10); err != nil {
		t.Fatal(err)
	}
	other := s.MustAddNode("other", "", addr("10.2.0.1"))
	for _, a := range []string{"10.1.0.1", "10.1.0.5", "10.1.0.10"} {
		if _, err := s.AddNode("dup "+a, addr(a)); !errors.Is(err, ErrAddrInUse) {
			t.Errorf("AddNode at %s inside the block: %v, want ErrAddrInUse", a, err)
		}
	}
	for _, a := range []string{"10.1.0.2", "10.1.0.7", "10.1.0.9"} {
		if err := other.AddAddr(addr(a)); !errors.Is(err, ErrAddrInUse) {
			t.Errorf("AddAddr %s inside the block: %v, want ErrAddrInUse", a, err)
		}
	}
	if _, err := s.AddNode("below", addr("10.1.0.0")); err != nil {
		t.Errorf("AddNode just below the block: %v", err)
	}
	if err := other.AddAddr(addr("10.1.0.11")); err != nil {
		t.Errorf("AddAddr just above the block: %v", err)
	}
	for _, b := range []struct {
		first string
		n     int
	}{{"10.2.0.0", 4}, {"10.1.0.10", 1}, {"10.0.255.255", 2}, {"10.1.0.11", 5}} {
		if err := block(b.first, b.n); !errors.Is(err, ErrAddrInUse) {
			t.Errorf("block [%s +%d) over an owned address: %v, want ErrAddrInUse", b.first, b.n, err)
		}
	}
	if err := block("10.1.0.12", 4); err != nil {
		t.Errorf("adjacent block: %v", err)
	}
	if err := block("255.255.255.250", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode("top", addr("255.255.255.255")); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("AddNode at the last address of a block ending the space: %v, want ErrAddrInUse", err)
	}
	if err := block("255.255.255.254", 1); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("block inside a block ending the space: %v, want ErrAddrInUse", err)
	}
}

// TestAddNodeRefusesRepeatedAddress: an address given twice in one
// AddNode call is refused like one another node owns, and the refused
// call leaves nothing behind — the name and the address stay free.
func TestAddNodeRefusesRepeatedAddress(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a, b := addr("10.0.0.1"), addr("10.0.0.2")
	for _, addrs := range [][]netip.Addr{{a, a}, {a, b, a}, {b, a, b}} {
		if n, err := s.AddNode("x", addrs...); !errors.Is(err, ErrAddrInUse) {
			t.Errorf("AddNode(x, %v) = %v, %v; want ErrAddrInUse", addrs, n, err)
		}
	}
	if s.nodes["x"] != nil || len(s.byAddr) != 0 {
		t.Fatalf("refused calls left node %v and %d registered addresses", s.nodes["x"], len(s.byAddr))
	}
	n, err := s.AddNode("x", a, b)
	if err != nil || !slices.Equal(n.ownAddrs(), []netip.Addr{a, b}) {
		t.Errorf("AddNode(x, %v, %v) = %v, %v", a, b, n, err)
	}
}

func TestAddRemoveAddr(t *testing.T) {
	s := NewSimulator(simStart, 1)
	n := s.MustAddNode("n", "", addr("10.0.0.1"))
	dyn := addr("10.0.0.77")
	if err := n.AddAddr(dyn); err != nil {
		t.Fatal(err)
	}
	if s.byAddr[dyn] != n || !slices.Contains(n.ownAddrs(), dyn) {
		t.Error("dynamic address not registered")
	}
	if err := n.AddAddr(dyn); err == nil {
		t.Error("re-adding same address should fail")
	}
	n.RemoveAddr(dyn)
	if s.byAddr[dyn] != nil || slices.Contains(n.ownAddrs(), dyn) {
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
	p1, p2, p3 := &Packet{}, &Packet{}, &Packet{}
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
	s.RunFor(5 * time.Millisecond)
	check("Now", s.Now(), 5*time.Millisecond)
	if !delivered {
		t.Fatal("packet not delivered")
	}
}
