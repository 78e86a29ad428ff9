package netem

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"
)

// route is one longest-prefix route. An IPv4 prefix matches the words
// dst with dst&mask == net; any other holds net 1 under mask 0, which no
// destination matches (every packet is IPv4).
type route struct {
	prefix    netip.Prefix
	net, mask uint32
	link      *Link
}

// hostRoute is a run of host-specificity routes covering the contiguous
// IPv4 range [first, first+n): one link for the whole range (a single
// AddRoute /32, or AddRangeRoute — a border router's per-edge aggregate)
// or one link per offset (AddBlockRoute — an edge router's per-host
// fan-out). One entry stands for n host routes, which is what lets
// border and edge FIBs stay flat at a million hosts.
type hostRoute struct {
	first uint32
	n     uint32
	link  *Link   // whole-range link (range form; nil in block form)
	links []*Link // per-offset links (block form; nil in range form)
}

// fib is the part of a node's forwarding table every node carries
// inline. Routes are installed straight into the table: disjoint host
// routes and broader prefixes in the router-side state, and an IPv4
// default here, so a leaf host needs no router-side state. The first
// lookup after a change (router.dirty) sorts the two lists in place —
// host routes by first address, prefixes stably by descending mask (an
// IPv4 length; equal ones keep install order) — and a lookup is a binary
// search for the host route covering dst, a longest-prefix scan, then dflt.
type fib struct {
	dflt *Link // the first IPv4 /0 installed; a later one could never win
}

// AddRoute installs a static prefix route through the given link. A
// single IPv4 address is a host route and must not overlap another.
func (n *Node) AddRoute(prefix netip.Prefix, l *Link) {
	switch a := prefix.Addr(); {
	case a.Is4() && prefix.Bits() == 0:
		if n.fib.dflt == nil {
			n.fib.dflt = l
		}
	case a.Is4() && prefix.IsSingleIP():
		r := n.router()
		r.hosts = append(r.hosts, hostRoute{first: ipv4ToUint(a), n: 1, link: l})
		r.dirty = true
	default:
		rt := route{prefix: prefix, net: 1, link: l}
		if a.Is4() && prefix.IsValid() {
			rt.mask = ^uint32(0) << (32 - prefix.Bits())
			rt.net = ipv4ToUint(a) & rt.mask
		}
		r := n.router()
		r.prefixes = append(r.prefixes, rt)
		r.dirty = true
	}
}

// AddRangeRoute installs host routes for the n consecutive IPv4
// addresses [first, first+n), all via link l, as one entry — how a
// border router holds one route per edge-router block instead of one per
// customer. Host routes are more specific than any prefix route and must
// not overlap each other: the next lookup panics if they do.
func (n *Node) AddRangeRoute(first netip.Addr, count int, l *Link) error {
	return n.addHostRoute(first, count, l, nil)
}

// AddBlockRoute installs host routes for the len(links) consecutive IPv4
// addresses starting at first, where address first+i routes via
// links[i] — an edge router's whole customer fan-out as one flat
// offset-indexed array. Matching is that of AddRangeRoute. The links
// slice is retained.
func (n *Node) AddBlockRoute(first netip.Addr, links []*Link) error {
	return n.addHostRoute(first, len(links), nil, links)
}

func (n *Node) addHostRoute(first netip.Addr, count int, l *Link, links []*Link) error {
	if !first.Is4() {
		return fmt.Errorf("netem: block route base %v is not IPv4", first)
	}
	v := ipv4ToUint(first)
	if count <= 0 || uint64(v)+uint64(count) > 1<<32 {
		return fmt.Errorf("netem: block route [%v +%d) is empty or wraps the address space", first, count)
	}
	r := n.router()
	r.hosts = append(r.hosts, hostRoute{first: v, n: uint32(count), link: l, links: links})
	r.dirty = true
	return nil
}

// ClearRoutes removes every installed route.
func (n *Node) ClearRoutes() {
	if r := n.rt; r != nil {
		r.hosts = r.hosts[:0]
		r.prefixes = r.prefixes[:0]
	}
	n.fib.dflt = nil
}

// sortFIB sorts both route lists in place and panics on overlapping host
// routes, naming the node and both ranges.
func (n *Node) sortFIB() {
	r := n.rt
	slices.SortStableFunc(r.prefixes, func(a, b route) int { return cmp.Compare(b.mask, a.mask) })
	slices.SortFunc(r.hosts, func(a, b hostRoute) int { return cmp.Compare(a.first, b.first) })
	for i := 1; i < len(r.hosts); i++ {
		if a, b := r.hosts[i-1], r.hosts[i]; uint64(a.first)+uint64(a.n) > uint64(b.first) {
			panic(fmt.Sprintf("netem: node %q: host routes [%v +%d) and [%v +%d) overlap",
				r.name, uintToIPv4(a.first), a.n, uintToIPv4(b.first), b.n))
		}
	}
	r.dirty = false
}

// lookupRoute returns the best route for the IPv4 destination v, or nil:
// the host route covering v, else the longest matching prefix, else the
// default. A node without router-side state has only the default.
func (n *Node) lookupRoute(v uint32) *Link {
	if r := n.rt; r != nil {
		if r.dirty {
			n.sortFIB()
		}
		// First host route starting strictly after v; the one before it
		// is the only candidate.
		lo, hi := 0, len(r.hosts)
		for lo < hi {
			mid := (lo + hi) / 2
			if r.hosts[mid].first <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			if h := &r.hosts[lo-1]; v-h.first < h.n {
				if h.links != nil {
					return h.links[v-h.first]
				}
				return h.link
			}
		}
		for i := range r.prefixes {
			if p := &r.prefixes[i]; v&p.mask == p.net {
				return p.link
			}
		}
	}
	return n.fib.dflt
}

// dijkstraScratch holds per-source Dijkstra state, reused across the
// sources of one BuildRoutes call (and across calls) so route compilation
// on large topologies doesn't thrash the allocator.
type dijkstraScratch struct {
	dist    []float64
	first   []*Link
	visited []bool
	heap    minHeap[heapItem] // (dist, node id); stale entries skipped
}

type heapItem struct {
	dist float64
	id   int
}

func nearer(a, b *heapItem) bool { return a.dist < b.dist }

func (d *dijkstraScratch) reset(n int) {
	d.dist = slices.Grow(d.dist[:0], n)[:n]
	d.first = slices.Grow(d.first[:0], n)[:n]
	d.visited = slices.Grow(d.visited[:0], n)[:n]
	for i := range d.dist {
		d.dist[i] = math.Inf(1)
	}
	clear(d.first)
	clear(d.visited)
	d.heap = d.heap[:0]
}

// runDijkstra fills scratch with shortest-path distances and first-hop
// links from src.
func (s *Simulator) runDijkstra(src *Node) *dijkstraScratch {
	d := &s.dijkstra
	d.reset(len(s.nodeList))
	d.dist[src.id] = 0
	d.heap.push(heapItem{0, src.id}, nearer)
	for len(d.heap) > 0 {
		it := d.heap.pop(nearer)
		if d.visited[it.id] {
			continue
		}
		d.visited[it.id] = true
		cur := s.nodeList[it.id]
		for _, l := range cur.linkList() {
			dir := l.dir(cur)
			if dir == nil {
				continue
			}
			next := l.Peer(cur)
			nd := it.dist + dir.cost()
			if nd < d.dist[next.id] {
				d.dist[next.id] = nd
				if cur == src {
					d.first[next.id] = l
				} else {
					d.first[next.id] = d.first[cur.id]
				}
				d.heap.push(heapItem{nd, next.id}, nearer)
			}
		}
	}
	return d
}

// BuildRoutes computes shortest-path routes (Dijkstra over link costs)
// from every node to every node address and anycast group. It REPLACES
// every node's routing table; call it after the topology is complete and
// before adding manual prefix routes (AddRoute).
//
// Cost is O(nodes * links * log nodes): fine for scenario topologies up
// to a few thousand nodes. Metro-scale fan-outs should use BuildFanout,
// which installs hierarchical routes directly in O(hosts).
func (s *Simulator) BuildRoutes() {
	groups := make(map[netip.Addr][]*Node)
	for _, n := range s.nodeList {
		for _, a := range n.anycastAddrs() {
			groups[a] = append(groups[a], n)
		}
	}
	for _, src := range s.nodes {
		d := s.runDijkstra(src)
		// Install host routes for every reachable node's addresses.
		src.ClearRoutes()
		for id, l := range d.first {
			if l == nil {
				continue
			}
			for _, a := range s.nodeList[id].ownAddrs() {
				src.AddRoute(netip.PrefixFrom(a, a.BitLen()), l)
			}
		}
		// Anycast: route to the nearest member.
		for aAddr, members := range groups {
			if slices.Contains(members, src) {
				continue // src itself serves the anycast address
			}
			var bestLink *Link
			best := math.Inf(1)
			for _, m := range members {
				if dm := d.dist[m.id]; dm < best {
					best, bestLink = dm, d.first[m.id]
				}
			}
			if bestLink != nil {
				src.AddRoute(netip.PrefixFrom(aAddr, aAddr.BitLen()), bestLink)
			}
		}
	}
}
