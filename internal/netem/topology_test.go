package netem

import (
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"netneutral/internal/wire"
)

// routeCount is the node's installed route entries: prefix plus host
// entries plus the default route — a block counts once, however many
// addresses it covers.
func routeCount(n *Node) int {
	hosts, prefixes := routes(n)
	c := len(hosts) + len(prefixes)
	if n.fib.dflt != nil {
		c++
	}
	return c
}

func TestBuildFanoutRouting(t *testing.T) {
	s := NewSimulator(simStart, 1)
	f, err := BuildFanout(s, FanoutSpec{Hosts: 600, HostsPerEdge: 100, Outside: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Edges) != 6 || len(f.Hosts) != 600 || len(f.Outside) != 2 {
		t.Fatalf("tiers = %d edges, %d hosts, %d outside", len(f.Edges), len(f.Hosts), len(f.Outside))
	}

	// Outside -> any host crosses transit, border, an edge (3 forwards).
	delivered := f.CountDeliveries()
	for _, i := range []int{0, 99, 100, 599} {
		if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), nil)); err != nil {
			t.Fatalf("send to host %d: %v", i, err)
		}
	}
	s.Run()
	if delivered.Total() != 4 {
		t.Fatalf("delivered %d/4 downstream packets", delivered.Total())
	}

	// Host -> outside works via default routes.
	got := false
	f.Outside[1].SetHandler(func(time.Time, []byte) { got = true })
	if err := f.Hosts[42].Send(mkUDP(t, f.HostAddr(42), f.OutsideAddr(1), nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !got {
		t.Fatal("upstream packet undelivered")
	}

	// Anycast from outside terminates at the border (neutralizer site).
	atBorder := false
	f.Border.SetHandler(func(time.Time, []byte) { atBorder = true })
	if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.Spec.Anycast, nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !atBorder {
		t.Fatal("anycast packet did not reach the border")
	}

	// The border resolves hosts through prefix-compressed routes: one
	// range route per edge plus the default — O(edges) state, never
	// O(hosts).
	if n := routeCount(f.Border); n != len(f.Edges)+1 {
		t.Errorf("border has %d routes, want %d (one range per edge + default)", n, len(f.Edges)+1)
	}
	// Each edge holds its whole customer fan-out as one block route.
	if n := routeCount(f.Edges[0]); n != 2 {
		t.Errorf("edge0 has %d routes, want 2 (host block + default)", n)
	}
	// A host's one route is its default, held in the FIB's own field.
	if h := f.Hosts[42]; routeCount(h) != 1 || h.fib.dflt != h.uplink || h.rt != nil {
		t.Errorf("host42 has %d routes (router-side state %v), want 1: the default up its one link",
			routeCount(h), h.rt != nil)
	}
}

// TestHostFootprint holds the million-host memory plan: everything
// BuildFanout adds per customer host — its Node with its address and link
// pointer inline, its link with both directions inline, and its slots in
// the edge's link list (which the block route reads in place), the
// simulator's node list and the host slice — stays within 216 bytes of
// live heap.
func TestHostFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	const hosts = 20000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewSimulator(simStart, 1)
	f, err := BuildFanout(s, FanoutSpec{Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perHost := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / hosts
	runtime.KeepAlive(f)
	t.Logf("fanout of %d hosts: %.1f B/host", hosts, perHost)
	if perHost > 216 {
		t.Errorf("a fanout host costs %.1f B of heap, want <= 216", perHost)
	}
}

// TestHostsHoldNoRouterState: a slab host carries no router-side state
// through a build, a BuildRoutes and a run, so a stray AddRoute or
// AddTransitHook on hosts cannot bring the bytes TestHostFootprint
// counts back unnoticed.
func TestHostsHoldNoRouterState(t *testing.T) {
	s := NewSimulator(simStart, 1)
	f, err := BuildFanout(s, FanoutSpec{Hosts: 300, HostsPerEdge: 128})
	if err != nil {
		t.Fatal(err)
	}
	s.BuildRoutes()
	delivered := f.CountDeliveries()
	for _, i := range []int{0, 127, 128, 299} {
		if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), nil)); err != nil {
			t.Fatalf("send to host %d: %v", i, err)
		}
		if err := f.Hosts[i].Send(mkUDP(t, f.HostAddr(i), f.OutsideAddr(0), nil)); err != nil {
			t.Fatalf("send from host %d: %v", i, err)
		}
	}
	s.RunFor(time.Second)
	if delivered.Total() != 4 {
		t.Fatalf("delivered %d/4 to hosts", delivered.Total())
	}
	for i, h := range f.Hosts {
		if h.rt != nil {
			t.Fatalf("host %d holds router-side state %+v", i, *h.rt)
		}
	}
	if f.Edges[0].rt == nil || f.Edges[0].Name() != "edge0" {
		t.Error("edge0 lost its name or its routes")
	}
}

// TestBuildFanoutHostSlab: customer hosts are slab-allocated and
// anonymous — not resolvable by name — and route both ways across an
// edge boundary.
func TestBuildFanoutHostSlab(t *testing.T) {
	s := NewSimulator(simStart, 1)
	f, err := BuildFanout(s, FanoutSpec{Hosts: 300, HostsPerEdge: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.nodes["host0"]; got != nil {
		t.Fatal("slab hosts must not be name-resolvable")
	}
	delivered := f.CountDeliveries()
	for _, i := range []int{0, 127, 128, 299} {
		if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), nil)); err != nil {
			t.Fatalf("send to host %d: %v", i, err)
		}
	}
	got := false
	f.Outside[0].SetHandler(func(time.Time, []byte) { got = true })
	if err := f.Hosts[200].Send(mkUDP(t, f.HostAddr(200), f.OutsideAddr(0), nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if delivered.Total() != 4 || !got {
		t.Fatalf("delivered %d/4 downstream, upstream=%v", delivered.Total(), got)
	}
}

func TestBuildFanoutRejectsBadSpecs(t *testing.T) {
	s := NewSimulator(simStart, 1)
	if _, err := BuildFanout(s, FanoutSpec{Hosts: 0}); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := BuildFanout(s, FanoutSpec{Hosts: 1 << 23}); err == nil {
		t.Error("hosts exceeding the customer block accepted")
	}
}

// TestBuildFanoutScales: a 20k-host build must stay well under a second
// and route end to end.
func TestBuildFanoutScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSimulator(simStart, 1)
	start := time.Now()
	f, err := BuildFanout(s, FanoutSpec{Hosts: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("20k-host build took %v", el)
	}
	delivered := f.CountDeliveries()
	if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(19999), nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if delivered.Total() != 1 {
		t.Fatal("last host unreachable")
	}
}

// TestHostBecomesRouter: a slab host keeps its one address and link
// inline, read through one-element views of those fields; the first call
// that needs a second address or link moves both into router-side state.
// Each step below grows the host by one list entry, and after each its
// addresses, its links and delivery to it answer as a node built with
// them would — before and after a BuildRoutes.
func TestHostBecomesRouter(t *testing.T) {
	s := NewSimulator(simStart, 1)
	f, err := BuildFanout(s, FanoutSpec{Hosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, own, up := f.Hosts[2], f.HostAddr(2), f.Hosts[2].uplink
	if h.rt != nil || up == nil || &h.addrList()[0] != &h.addr || &h.linkList()[0] != &h.uplink {
		t.Fatal("a slab host's lists do not view its inline address and link")
	}
	var got []netip.Addr
	h.SetHandler(func(_ time.Time, pkt []byte) {
		_, dst, _ := wire.IPv4Addrs(pkt)
		got = append(got, dst)
	})
	side := s.MustAddNode("side", "", addr("10.9.0.1"))
	var sideLink *Link
	extra, group := addr("10.9.0.2"), addr("10.9.0.3")
	// reaches sends one packet from each source to each destination and
	// wants every one delivered to h.
	reaches := func(step string, dsts []netip.Addr, srcs ...*Node) {
		t.Helper()
		got = got[:0]
		for _, src := range srcs {
			for _, dst := range dsts {
				if err := src.Send(mkUDP(t, src.Addr(), dst, nil)); err != nil {
					t.Fatalf("%s: %s -> %v: %v", step, src.Name(), dst, err)
				}
			}
		}
		s.Run()
		if len(got) != len(srcs)*len(dsts) {
			t.Fatalf("%s: delivered %v, want %v from each of %d sources", step, got, dsts, len(srcs))
		}
	}
	reaches("slab host", []netip.Addr{own}, f.Outside[0], h)

	for _, step := range []struct {
		name        string
		do          func()
		own, served []netip.Addr
	}{
		{"second link", func() { sideLink = s.Connect(h, side, LinkConfig{Delay: time.Millisecond}) },
			[]netip.Addr{own}, []netip.Addr{own}},
		{"AddAddr", func() {
			if err := h.AddAddr(extra); err != nil {
				t.Fatal(err)
			}
		}, []netip.Addr{own, extra}, []netip.Addr{own, extra}},
		{"AddAnycast", func() { s.AddAnycast(group, h) },
			[]netip.Addr{own, extra}, []netip.Addr{own, extra, group}},
	} {
		step.do()
		if h.rt == nil || h.addr.IsValid() || h.uplink != nil {
			t.Fatalf("%s: address and link not moved into router-side state (rt %v, addr %v, uplink %v)",
				step.name, h.rt != nil, h.addr, h.uplink)
		}
		if !slices.Equal(h.linkList(), []*Link{up, sideLink}) || h.fib.dflt != up {
			t.Fatalf("%s: links %v (default %v), want [uplink side] with the default up", step.name, h.linkList(), h.fib.dflt)
		}
		if h.Addr() != own || !slices.Equal(h.ownAddrs(), step.own) || !slices.Equal(h.addrList(), step.served) {
			t.Fatalf("%s: Addr %v, own %v, served %v; want %v, %v, %v",
				step.name, h.Addr(), h.ownAddrs(), h.addrList(), own, step.own, step.served)
		}
		// The fan-out's routes still reach its own address, and the host
		// delivers every address it serves to itself.
		reaches(step.name, []netip.Addr{own}, f.Outside[0])
		reaches(step.name, step.served, h)
	}
	s.BuildRoutes()
	reaches("BuildRoutes", []netip.Addr{own, extra, group}, f.Outside[0], side, f.Hosts[0])
	var out int
	f.Outside[0].SetHandler(func(time.Time, []byte) { out++ })
	if err := h.Send(mkUDP(t, own, f.OutsideAddr(0), nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if out != 1 {
		t.Errorf("after BuildRoutes the host's packet up its default reached outside %d times, want 1", out)
	}
}
