package netem

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// routes is n's host routes and prefix routes: none on a node without
// router-side state.
func routes(n *Node) ([]hostRoute, []route) {
	if n.rt == nil {
		return nil, nil
	}
	return n.rt.hosts, n.rt.prefixes
}

// lookupRouteLinear is the reference implementation the FIB property
// tests assert lookupRoute against on random topologies: a linear scan
// of the node's host routes for one covering dst, else of its prefixes
// for the longest match (the earliest installed among equal lengths),
// else, for IPv4, the default route. TestFIBMatchesLinearReference
// checks separately that the default is the first IPv4 /0 installed.
func (n *Node) lookupRouteLinear(dst netip.Addr) *Link {
	hosts, prefixes := routes(n)
	if dst.Is4() {
		v := ipv4ToUint(dst)
		for _, h := range hosts {
			if v >= h.first && uint64(v) < uint64(h.first)+uint64(h.n) {
				if h.links != nil {
					return h.links[v-h.first]
				}
				return h.link
			}
		}
	}
	best := -1
	var via *Link
	for _, r := range prefixes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > best {
			best, via = r.prefix.Bits(), r.link
		}
	}
	if via == nil && dst.Is4() {
		via = n.fib.dflt
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
// prefix routes and random range/block routes, the indexed FIB must
// return exactly what the linear reference scan returns, for every probe
// address. Of the IPv4 /0s a node gets, the first installed must be its
// default; the IPv6 ::/0 each trial installs must stay a prefix route.
func TestFIBMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v6Default := netip.MustParsePrefix("::/0")
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(30)
		s, nodes := randTopology(t, rng, n)
		s.BuildRoutes()

		// Sprinkle random broader prefixes (including overlapping and
		// duplicate lengths, and several /0s) over random nodes.
		firstDefault := map[*Node]*Link{}
		for k := 0; k < 10; k++ {
			nd := nodes[rng.Intn(n)]
			if len(nd.linkList()) == 0 {
				continue
			}
			bits := []int{0, 8, 10, 12, 16, 24}[rng.Intn(6)]
			base := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
			p, err := base.Prefix(bits)
			if err != nil {
				t.Fatal(err)
			}
			l := nd.linkList()[rng.Intn(len(nd.linkList()))]
			if bits == 0 && firstDefault[nd] == nil {
				firstDefault[nd] = l
			}
			nd.AddRoute(p, l)
		}
		for _, nd := range nodes {
			if nd.fib.dflt != firstDefault[nd] {
				t.Fatalf("trial %d: node %s default %p, want the first IPv4 /0 installed, %p",
					trial, nd.Name(), nd.fib.dflt, firstDefault[nd])
			}
		}
		v6 := nodes[rng.Intn(n)]
		v6.AddRoute(v6Default, v6.linkList()[0])
		if _, prefixes := routes(v6); !slices.ContainsFunc(prefixes, func(r route) bool { return r.prefix == v6Default }) {
			t.Fatalf("trial %d: node %s: ::/0 is not in the prefix list", trial, v6.Name())
		}

		// Sprinkle range/block routes in 10.0-3.x, under the prefixes
		// above: host routes must be disjoint, so each is drawn clear of
		// the node /32s BuildRoutes installed and of every earlier draw.
		var taken [][2]uint64 // [lo, hi) of every host route installed anywhere
		for _, nd := range nodes {
			v := uint64(ipv4ToUint(nd.Addr()))
			taken = append(taken, [2]uint64{v, v + 1})
		}
		for k := 0; k < 8; k++ {
			nd := nodes[rng.Intn(n)]
			if len(nd.linkList()) == 0 {
				continue
			}
			base := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(250))})
			count := 1 + rng.Intn(600)
			lo := uint64(ipv4ToUint(base))
			hi := lo + uint64(count)
			if slices.ContainsFunc(taken, func(r [2]uint64) bool { return lo < r[1] && r[0] < hi }) {
				continue
			}
			taken = append(taken, [2]uint64{lo, hi})
			if rng.Intn(2) == 0 {
				if err := nd.AddRangeRoute(base, count, nd.linkList()[rng.Intn(len(nd.linkList()))]); err != nil {
					t.Fatal(err)
				}
			} else {
				links := make([]*Link, count)
				for i := range links {
					links[i] = nd.linkList()[rng.Intn(len(nd.linkList()))]
				}
				if err := nd.AddBlockRoute(base, links); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Probes: both edges of every host route (node addresses
		// included), random addresses anywhere, and random addresses in
		// the range neighborhood.
		var probes []netip.Addr
		for _, r := range taken {
			for _, v := range []uint64{r[0] - 1, r[0], r[1] - 1, r[1]} {
				probes = append(probes, uintToIPv4(uint32(v)))
			}
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
				got, want := nd.lookupRoute(ipv4ToUint(dst)), nd.lookupRouteLinear(dst)
				if got != want {
					t.Fatalf("trial %d: node %s dst %v: FIB %p != linear %p",
						trial, nd.Name(), dst, got, want)
				}
			}
		}
	}
}

// FuzzLookupMatchesLinear: the word FIB — host routes by binary search,
// prefixes as (net, mask) words — returns what lookupRouteLinear's scan
// with netip.Prefix.Contains returns, for every destination an install
// script makes interesting. Each op is one byte and takes its operands
// from the bytes after it: a prefix from /0 to /32 (a /32 is a host
// route), the previous prefix again on another link (install order
// decides between equal prefixes), a range or a block route, or a lookup
// pass mid-script (the FIB re-sorts what changed since the last one). The
// node's peers carry IPv6 addresses too, so BuildRoutes puts their /128s
// in its prefix list, where no IPv4 destination may match them — not even
// the one their low word spells, which is probed.
func FuzzLookupMatchesLinear(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 0, 16, 0, 0, 10, 1, 2, 0, 24, 1, 4, 0, 0, 0, 0, 0, 0, 2, 0, 10, 1, 2, 3, 32, 3, 4})
	f.Add([]byte{0, 10, 9, 0, 0, 16, 0, 1, 1, 1, 2, 0, 10, 9, 0, 0, 16, 3, 4, 1, 0})               // equal prefixes
	f.Add([]byte{2, 10, 9, 0, 0, 200, 3, 0, 3, 10, 9, 1, 0, 10, 5, 1, 4, 0, 10, 0, 0, 0, 8, 2, 4}) // ranges, blocks
	f.Add([]byte{0, 0, 0, 0, 0, 30, 0, 4})                                                         // over the /128s' low words
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSimulator(simStart, 1)
		a := s.MustAddNode("a", "", addr("10.0.0.1"))
		var links []*Link
		for i := 0; i < 4; i++ {
			p := s.MustAddNode(fmt.Sprint("p", i), "", uintToIPv4(ipv4ToUint(addr("10.0.1.0"))+uint32(i)),
				netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)}))
			links = append(links, s.Connect(a, p, LinkConfig{Delay: time.Millisecond}))
		}
		s.BuildRoutes()
		probes := []uint32{0, math.MaxUint32}
		var taken [][2]uint64 // [lo, hi) of every host route: they must not overlap
		hosts, prefixes := routes(a)
		for _, h := range hosts {
			taken = append(taken, [2]uint64{uint64(h.first), uint64(h.first) + uint64(h.n)})
			probes = append(probes, h.first)
		}
		for _, r := range prefixes {
			b := r.prefix.Addr().As16()
			probes = append(probes, uint32(b[12])<<24|uint32(b[13])<<16|uint32(b[14])<<8|uint32(b[15]))
		}
		if len(taken) != 4 || len(prefixes) != 4 {
			t.Fatalf("BuildRoutes installed %d host routes and %d prefixes, want 4 and 4 (the /128s)", len(taken), len(prefixes))
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() uint32 { return uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next()) }
		claim := func(lo, hi uint64) bool {
			if hi > 1<<32 || slices.ContainsFunc(taken, func(r [2]uint64) bool { return lo < r[1] && r[0] < hi }) {
				return false
			}
			taken = append(taken, [2]uint64{lo, hi})
			probes = append(probes, uint32(lo-1), uint32(lo), uint32(hi-1), uint32(hi))
			return true
		}
		check := func() {
			for _, v := range probes {
				if got, want := a.lookupRoute(v), a.lookupRouteLinear(uintToIPv4(v)); got != want {
					t.Fatalf("dst %v: FIB %p != linear %p", uintToIPv4(v), got, want)
				}
			}
		}
		var last netip.Prefix
		var dflt *Link
		for len(data) > 0 {
			switch op := next(); op % 5 {
			case 0: // a prefix from /0 to /32
				p := netip.PrefixFrom(uintToIPv4(word()), int(next()%33))
				l := links[next()%4]
				lo := uint64(ipv4ToUint(p.Masked().Addr()))
				if p.Bits() == 32 && !claim(lo, lo+1) {
					continue
				}
				if p.Bits() == 0 && dflt == nil {
					dflt = l
				}
				a.AddRoute(p, l)
				last = p
				probes = append(probes, ipv4ToUint(p.Addr()), uint32(lo-1), uint32(lo), uint32(lo+1<<(32-p.Bits())-1), uint32(lo+1<<(32-p.Bits())))
			case 1: // the previous prefix again, on another link
				if last.IsValid() && last.Bits() < 32 {
					a.AddRoute(last, links[next()%4])
				}
			case 2, 3: // a range (2) or a block (3) route
				first, n := word(), 1+int(next())*(1+int(next()%16))
				if !claim(uint64(first), uint64(first)+uint64(n)) {
					continue
				}
				var err error
				if op%5 == 2 {
					err = a.AddRangeRoute(uintToIPv4(first), n, links[next()%4])
				} else {
					block := make([]*Link, n)
					for i := range block {
						block[i] = links[(i*7+int(first))%4]
					}
					err = a.AddBlockRoute(uintToIPv4(first), block)
				}
				if err != nil {
					t.Fatal(err)
				}
			case 4: // look up now
				check()
			}
		}
		check()
		if a.fib.dflt != dflt {
			t.Fatalf("default %p, want the first /0 installed, %p", a.fib.dflt, dflt)
		}
	})
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
				t.Fatalf("trial %d: %s -> anycast: %v", trial, src.Name(), err)
			}
			s.Run()
			if deliveredTo == nil {
				t.Fatalf("trial %d: anycast from %s undelivered", trial, src.Name())
			}
			if got := dist[deliveredTo]; got != best {
				t.Fatalf("trial %d: anycast from %s reached %s at distance %v, nearest is %v",
					trial, src.Name(), deliveredTo.Name(), got, best)
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
		for _, l := range cur.n.linkList() {
			d := l.dir(cur.n)
			if d == nil {
				continue
			}
			next := l.Peer(cur.n)
			v := cur.d + d.cost()
			if old, ok := dist[next]; !ok || v < old {
				dist[next] = v
				frontier = append(frontier, nd{next, v})
			}
		}
	}
	return dist
}

// TestFIBRecompilesAfterRouteChange: routes added after a lookup must be
// visible (the dirty flag re-sorts the FIB on the next lookup).
func TestFIBRecompilesAfterRouteChange(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	dst := ipv4ToUint(addr("10.9.0.1"))
	if a.lookupRoute(dst) != nil {
		t.Fatal("route before any install")
	}
	a.AddRoute(netip.MustParsePrefix("10.9.0.0/16"), l)
	if a.lookupRoute(dst) != l {
		t.Fatal("route added after a lookup not visible")
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
		t.Fatal("range route added after a lookup not visible")
	}
	a.ClearRoutes()
	if a.lookupRoute(dst) != nil {
		t.Fatal("cleared range route still resolves")
	}
}

// TestFIBRefusesOverlappingHostRoutes: host routes must be disjoint, so
// an overlap — partial, nested, or an exact duplicate — panics on the
// next lookup, naming the node; ClearRoutes recovers. IPv6 single
// addresses are not host routes: they sit in the prefix list, where they
// match no IPv4 destination.
func TestFIBRefusesOverlappingHostRoutes(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.1.1"))
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	for _, tc := range []struct {
		name    string
		install func() error
	}{
		{"partial overlap", func() error {
			if err := a.AddRangeRoute(addr("10.9.0.0"), 512, l); err != nil {
				return err
			}
			return a.AddRangeRoute(addr("10.9.1.0"), 512, l)
		}},
		{"block inside a range", func() error {
			if err := a.AddRangeRoute(addr("10.9.0.0"), 512, l); err != nil {
				return err
			}
			return a.AddBlockRoute(addr("10.9.0.16"), []*Link{l, l, l, l})
		}},
		{"duplicate /32", func() error {
			a.AddRoute(netip.MustParsePrefix("10.9.0.1/32"), l)
			a.AddRoute(netip.MustParsePrefix("10.9.0.1/32"), l)
			return nil
		}},
	} {
		a.ClearRoutes()
		if err := tc.install(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, `node "a"`) || !strings.Contains(msg, "overlap") {
					t.Errorf("%s: lookup recovered %q, want an overlap panic naming node a", tc.name, msg)
				}
			}()
			a.lookupRoute(ipv4ToUint(addr("10.9.0.1")))
		}()
	}

	a.ClearRoutes()
	a.AddRoute(netip.MustParsePrefix("10.9.0.1/32"), l)
	if a.lookupRoute(ipv4ToUint(addr("10.9.0.1"))) != l {
		t.Error("node does not route after ClearRoutes")
	}
	// Every packet is IPv4, so the /128 must capture no IPv4 destination,
	// not even the one its low word spells (0.0.0.1).
	v6 := netip.MustParseAddr("2001:db8::1")
	a.AddRoute(netip.PrefixFrom(v6, 128), l)
	if a.lookupRoute(1) != nil || len(a.rt.prefixes) != 1 || len(a.rt.hosts) != 1 {
		t.Errorf("IPv6 /128: 0.0.0.1 resolves %v, %d prefixes, %d host routes; want it in the prefix list only",
			a.lookupRoute(1) == l, len(a.rt.prefixes), len(a.rt.hosts))
	}
}

// TestNodeSize: a million-host backbone holds a Node per host, so the
// struct holds only what a leaf host uses; router-side state is one
// pointer.
func TestNodeSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("size bound is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got > 72 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d B, want <= 72", got)
	}
}

// TestEventSize: every queue push and pop copies one event, so the
// struct must not grow past the five words the layout in event.go needs.
func TestEventSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("size bound is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got > 40 {
		t.Errorf("unsafe.Sizeof(event{}) = %d B, want <= 40", got)
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
	if a.lookupRoute(ipv4ToUint(addr("11.0.0.5"))) != l { // sorts the FIB
		t.Fatal("range route does not resolve")
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perRoute := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / routes
	perAddr := perRoute / span
	t.Logf("range routes: %.1f B/route, %.3f B/covered-address", perRoute, perAddr)
	// One 40-byte host-route entry per route, with slice-growth slack:
	// anything near a per-/32 map cost (tens of bytes per covered
	// address) fails loudly.
	if perRoute > 300 {
		t.Errorf("range route costs %.1f B/route, want <= 300", perRoute)
	}
	if perAddr > 2 {
		t.Errorf("range route costs %.3f B/covered-address, want <= 2", perAddr)
	}

	// Every one of the 2.56M covered addresses must resolve through the
	// range entries; spot-check the corners and a stride.
	for i := 0; i < routes*span; i += 4099 {
		if a.lookupRoute(base+uint32(i)) != l {
			t.Fatalf("covered address %d does not resolve", i)
		}
	}
}
