package netem

import (
	"testing"
	"time"
)

// routeCount is the node's installed route entries: prefix plus
// block/range entries — a block counts once, however many addresses it
// covers.
func routeCount(n *Node) int { return len(n.routes) + len(n.blocks) }

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
