package netem

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"
)

// lookupRouteLinear is the reference implementation the FIB property
// tests assert lookupRoute against on random topologies: a linear scan
// for the longest matching prefix, with block/range routes modelled as
// the host routes they stand for — matched at host specificity (below
// an exact single-IP route, above any broader prefix), earliest
// installed first among overlapping blocks.
func (n *Node) lookupRouteLinear(dst netip.Addr) *Link {
	best := -1
	var via *Link
	for i := range n.routes {
		r := &n.routes[i]
		if r.prefix.Contains(dst) && r.prefix.Bits() > best {
			best = r.prefix.Bits()
			via = r.link
		}
	}
	if best == dst.BitLen() {
		return via // exact host route outranks blocks
	}
	if dst.Is4() {
		v := ipv4ToUint(dst)
		for i := range n.blocks {
			if b := &n.blocks[i]; b.contains(v) {
				return b.lookup(v)
			}
		}
	}
	return via
}

// randTopology builds a random connected topology: n nodes each with one
// address, a spanning tree plus extra random links with random delays
// (the routing metric).
func randTopology(t *testing.T, rng *rand.Rand, n int) (*Simulator, []*Node) {
	t.Helper()
	s := NewSimulator(simStart, rng.Int63())
	nodes := make([]*Node, n)
	for i := range nodes {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		nodes[i] = s.MustAddNode(fmt.Sprintf("n%d", i), "", a)
	}
	link := func(i, j int) {
		s.Connect(nodes[i], nodes[j], LinkConfig{
			Delay: time.Duration(1+rng.Intn(100)) * time.Millisecond,
		})
	}
	for i := 1; i < n; i++ {
		link(rng.Intn(i), i) // spanning tree: connected by construction
	}
	for k := 0; k < n/2; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			link(i, j)
		}
	}
	return s, nodes
}

// TestFIBMatchesLinearReference: on random topologies with random extra
// prefix routes and random (deliberately overlapping) block/range
// routes, the indexed FIB must return exactly what the linear reference
// scan returns, for every probe address.
func TestFIBMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(30)
		s, nodes := randTopology(t, rng, n)
		s.BuildRoutes()

		// Sprinkle random broader prefixes (including overlapping and
		// duplicate lengths) over random nodes.
		for k := 0; k < 10; k++ {
			nd := nodes[rng.Intn(n)]
			if len(nd.links) == 0 {
				continue
			}
			bits := []int{0, 8, 10, 12, 16, 24}[rng.Intn(6)]
			base := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
			p, err := base.Prefix(bits)
			if err != nil {
				t.Fatal(err)
			}
			nd.AddRoute(p, nd.links[rng.Intn(len(nd.links))])
		}

		// Sprinkle compressed block/range routes, confined to 10.0-3.x so
		// they overlap the node /32s, the prefixes above, and each other —
		// the tie-breaks (exact beats block beats prefix; earliest block
		// wins) are exactly what this must pin down.
		for k := 0; k < 8; k++ {
			nd := nodes[rng.Intn(n)]
			if len(nd.links) == 0 {
				continue
			}
			base := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(250))})
			count := 1 + rng.Intn(600)
			if rng.Intn(2) == 0 {
				if err := nd.AddRangeRoute(base, count, nd.links[rng.Intn(len(nd.links))]); err != nil {
					t.Fatal(err)
				}
			} else {
				links := make([]*Link, count)
				for i := range links {
					links[i] = nd.links[rng.Intn(len(nd.links))]
				}
				if err := nd.AddBlockRoute(base, links); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Probes: every node address, random addresses anywhere, and
		// random addresses in the block neighborhood.
		var probes []netip.Addr
		for _, nd := range nodes {
			probes = append(probes, nd.Addr())
		}
		for k := 0; k < 50; k++ {
			probes = append(probes, netip.AddrFrom4([4]byte{
				byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}))
		}
		for k := 0; k < 80; k++ {
			probes = append(probes, netip.AddrFrom4([4]byte{
				10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))}))
		}
		for _, nd := range nodes {
			for _, dst := range probes {
				got, want := nd.lookupRoute(dst), nd.lookupRouteLinear(dst)
				if got != want {
					t.Fatalf("trial %d: node %s dst %v: FIB %p != linear %p",
						trial, nd.Name, dst, got, want)
				}
			}
		}
	}
}

// TestFIBAnycastNearest: on random topologies with a random anycast
// group, a packet to the anycast address must reach a member whose
// Dijkstra distance from the source is minimal.
func TestFIBAnycastNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	anyAddr := netip.MustParseAddr("10.255.0.1")
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(25)
		s, nodes := randTopology(t, rng, n)
		nMembers := 1 + rng.Intn(3)
		members := map[*Node]bool{}
		for len(members) < nMembers {
			m := nodes[rng.Intn(n)]
			if !members[m] {
				members[m] = true
				s.AddAnycast(anyAddr, m)
			}
		}
		s.BuildRoutes()

		var deliveredTo *Node
		for m := range members {
			node := m
			node.SetHandler(func(time.Time, []byte) { deliveredTo = node })
		}
		// Reference distances via an independent map-based Dijkstra.
		for _, src := range nodes {
			dist := refDijkstra(src)
			best := math.Inf(1)
			for m := range members {
				if d, ok := dist[m]; ok && d < best {
					best = d
				}
			}
			deliveredTo = nil
			if err := src.Send(mkUDP(t, src.Addr(), anyAddr, nil)); err != nil {
				t.Fatalf("trial %d: %s -> anycast: %v", trial, src.Name, err)
			}
			s.Run()
			if deliveredTo == nil {
				t.Fatalf("trial %d: anycast from %s undelivered", trial, src.Name)
			}
			if got := dist[deliveredTo]; got != best {
				t.Fatalf("trial %d: anycast from %s reached %s at distance %v, nearest is %v",
					trial, src.Name, deliveredTo.Name, got, best)
			}
		}
	}
}

// refDijkstra is an independent shortest-path reference (maps and linear
// extract-min, like the seed implementation).
func refDijkstra(src *Node) map[*Node]float64 {
	dist := map[*Node]float64{src: 0}
	visited := map[*Node]bool{}
	type nd struct {
		n *Node
		d float64
	}
	frontier := []nd{{src, 0}}
	for len(frontier) > 0 {
		mi := 0
		for i := range frontier {
			if frontier[i].d < frontier[mi].d {
				mi = i
			}
		}
		cur := frontier[mi]
		frontier = append(frontier[:mi], frontier[mi+1:]...)
		if visited[cur.n] {
			continue
		}
		visited[cur.n] = true
		for _, l := range cur.n.links {
			d := l.dir(cur.n)
			if d == nil {
				continue
			}
			next := l.Peer(cur.n)
			v := cur.d + d.cfg.cost()
			if old, ok := dist[next]; !ok || v < old {
				dist[next] = v
				frontier = append(frontier, nd{next, v})
			}
		}
	}
	return dist
}

// TestFIBRecompilesAfterRouteChange: routes added after a lookup must be
// visible (the dirty flag invalidates the compiled FIB).
func TestFIBRecompilesAfterRouteChange(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	dst := addr("10.9.0.1")
	if a.lookupRoute(dst) != nil {
		t.Fatal("route before any install")
	}
	a.AddRoute(netip.MustParsePrefix("10.9.0.0/16"), l)
	if a.lookupRoute(dst) != l {
		t.Fatal("route added after compile not visible")
	}
	a.ClearRoutes()
	if a.lookupRoute(dst) != nil {
		t.Fatal("cleared route still resolves")
	}
	// Block routes respect the same dirty/clear lifecycle.
	if err := a.AddRangeRoute(addr("10.9.0.0"), 512, l); err != nil {
		t.Fatal(err)
	}
	if a.lookupRoute(dst) != l {
		t.Fatal("range route added after compile not visible")
	}
	a.ClearRoutes()
	if a.lookupRoute(dst) != nil {
		t.Fatal("cleared range route still resolves")
	}
}

// TestFIBRouteMemoryRegression pins the memory cost of compressed
// routes: a range route must cost a bounded number of bytes per entry —
// not per covered address — however many hosts it stands for. This is
// the regression gate for the backbone's O(edges) router state.
func TestFIBRouteMemoryRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond})

	const routes, span = 10000, 256
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := ipv4ToUint(addr("11.0.0.0"))
	for i := 0; i < routes; i++ {
		if err := a.AddRangeRoute(uintToIPv4(base+uint32(i)*span), span, l); err != nil {
			t.Fatal(err)
		}
	}
	if a.lookupRoute(addr("11.0.0.5")) != l { // force FIB compilation
		t.Fatal("range route does not resolve")
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perRoute := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / routes
	perAddr := perRoute / span
	t.Logf("range routes: %.1f B/route, %.3f B/covered-address", perRoute, perAddr)
	// Source entry (~40B) + compiled entry (~48B) + maxEnd word, with
	// slice-growth slack: anything near the old per-/32 map cost (tens
	// of bytes per covered address) fails loudly.
	if perRoute > 300 {
		t.Errorf("range route costs %.1f B/route, want <= 300", perRoute)
	}
	if perAddr > 2 {
		t.Errorf("range route costs %.3f B/covered-address, want <= 2", perAddr)
	}

	// Every one of the 2.56M covered addresses must resolve through the
	// compiled form; spot-check the corners and a stride.
	for i := 0; i < routes*span; i += 4099 {
		if a.lookupRoute(uintToIPv4(base+uint32(i))) != l {
			t.Fatalf("covered address %d does not resolve", i)
		}
	}
}
