package netem

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
)

// route is one installed prefix route; the node's route list is the
// source of truth and is compiled into the indexed FIB on demand.
type route struct {
	prefix netip.Prefix
	link   *Link
}

// blockRoute is a prefix-compressed set of host-specificity routes
// covering the contiguous IPv4 range [first, first+n): either one link
// for the whole range (AddRangeRoute — a border router's per-edge
// aggregate) or one link per offset (AddBlockRoute — an edge router's
// per-host fan-out). One blockRoute replaces n map entries, which is
// what lets border and edge FIBs stay flat at a million hosts.
type blockRoute struct {
	first uint32
	n     uint32
	link  *Link   // whole-range link (range form; nil in block form)
	links []*Link // per-offset links (block form; nil in range form)
}

func (b *blockRoute) contains(v uint32) bool { return v-b.first < b.n }

func (b *blockRoute) lookup(v uint32) *Link {
	if b.links != nil {
		return b.links[v-b.first]
	}
	return b.link
}

// fib is a node's compiled forwarding table, probed in specificity
// order: an exact-match map for individually installed host (/32, /128)
// routes, then the block/range routes at host specificity (binary search
// over ranges sorted by first address; overlapping blocks resolve to the
// earliest installed), then a short table of broader prefixes sorted by
// descending length for longest-prefix match. Compiled lazily after any
// route change.
type fib struct {
	hosts  map[netip.Addr]*Link // nil when no single-IP routes exist
	blocks []compiledBlock      // sorted by first address, ascending
	maxEnd []uint32             // maxEnd[i] = max over blocks[:i+1] of first+n
	// prefixes may alias the node's route list when no reordering or
	// filtering was needed (the leaf-host case: one default route), so
	// compiling a million leaf FIBs allocates nothing.
	prefixes []route
	dirty    bool
	anycast  bool // member of an anycast group; in dirty's padding, as Node must not grow
}

type compiledBlock struct {
	blockRoute
	idx int32 // install order: the earliest-installed overlapping block wins
}

// AddRoute installs a static prefix route through the given link.
func (n *Node) AddRoute(prefix netip.Prefix, l *Link) {
	n.routes = append(n.routes, route{prefix: prefix, link: l})
	n.fib.dirty = true
}

// AddRangeRoute installs host-specificity routes for the n consecutive
// IPv4 addresses [first, first+n), all via link l, as one compressed
// entry — how a border router holds one route per edge-router block
// instead of one per customer. Range routes match like /32 routes: more
// specific than any prefix route, less specific than an exact AddRoute
// /32; overlapping ranges resolve to the earliest installed.
func (n *Node) AddRangeRoute(first netip.Addr, count int, l *Link) error {
	b, err := makeBlock(first, count)
	if err != nil {
		return err
	}
	b.link = l
	n.blocks = append(n.blocks, b)
	n.fib.dirty = true
	return nil
}

// AddBlockRoute installs host-specificity routes for the len(links)
// consecutive IPv4 addresses starting at first, where address first+i
// routes via links[i] — an edge router's whole customer fan-out as one
// flat offset-indexed array instead of a map entry per host. Matching
// semantics are those of AddRangeRoute. The links slice is retained.
func (n *Node) AddBlockRoute(first netip.Addr, links []*Link) error {
	b, err := makeBlock(first, len(links))
	if err != nil {
		return err
	}
	b.links = links
	n.blocks = append(n.blocks, b)
	n.fib.dirty = true
	return nil
}

func makeBlock(first netip.Addr, count int) (blockRoute, error) {
	if !first.Is4() {
		return blockRoute{}, fmt.Errorf("netem: block route base %v is not IPv4", first)
	}
	v := ipv4ToUint(first)
	if count <= 0 || uint64(v)+uint64(count) > 1<<32 {
		return blockRoute{}, fmt.Errorf("netem: block route [%v +%d) is empty or wraps the address space", first, count)
	}
	return blockRoute{first: v, n: uint32(count)}, nil
}

// ClearRoutes removes every installed route, block routes included.
func (n *Node) ClearRoutes() {
	n.routes = n.routes[:0]
	n.blocks = n.blocks[:0]
	n.fib.dirty = true
}

// compileFIB rebuilds the indexed FIB from the route and block lists.
// Ties between equal-length prefixes resolve to the earliest-installed
// route, matching the historical linear scan (which only replaced on
// strictly longer).
func (n *Node) compileFIB() {
	f := &n.fib
	singles := 0
	for i := range n.routes {
		if n.routes[i].prefix.IsSingleIP() {
			singles++
		}
	}
	if singles == 0 {
		f.hosts = nil
		// No filtering needed; alias the route list when it is already in
		// descending-length order (always true for the one-default-route
		// leaf hosts), so the common compile is allocation-free. Stable
		// sorting an aliased list would also be correct — it only reorders
		// entries of different lengths, which cannot change any lookup —
		// but copying keeps the install-order list untouched.
		if sortedByLenDesc(n.routes) {
			f.prefixes = n.routes
		} else {
			f.prefixes = append(f.prefixes[:0:0], n.routes...)
			slices.SortStableFunc(f.prefixes, func(a, b route) int {
				return b.prefix.Bits() - a.prefix.Bits()
			})
		}
	} else {
		if f.hosts == nil {
			f.hosts = make(map[netip.Addr]*Link, singles)
		} else {
			clear(f.hosts)
		}
		f.prefixes = f.prefixes[:0]
		for _, r := range n.routes {
			if r.prefix.IsSingleIP() {
				if _, dup := f.hosts[r.prefix.Addr()]; !dup {
					f.hosts[r.prefix.Addr()] = r.link
				}
				continue
			}
			f.prefixes = append(f.prefixes, r)
		}
		// Stable sort by descending prefix length: stability preserves the
		// first-installed-wins tie-break the linear reference implements.
		slices.SortStableFunc(f.prefixes, func(a, b route) int {
			return b.prefix.Bits() - a.prefix.Bits()
		})
	}

	f.blocks = f.blocks[:0]
	f.maxEnd = f.maxEnd[:0]
	for i := range n.blocks {
		f.blocks = append(f.blocks, compiledBlock{blockRoute: n.blocks[i], idx: int32(i)})
	}
	slices.SortStableFunc(f.blocks, func(a, b compiledBlock) int {
		switch {
		case a.first < b.first:
			return -1
		case a.first > b.first:
			return 1
		}
		return 0
	})
	var maxEnd uint64 // 64-bit: an end of 1<<32 (top of the space) must stay sticky
	for i := range f.blocks {
		if end := uint64(f.blocks[i].first) + uint64(f.blocks[i].n); end > maxEnd {
			maxEnd = end
		}
		// Stored as uint32: 1<<32 wraps to 0, the "reaches the top" sentinel
		// lookupBlock understands (block lengths are positive, so a genuine
		// running max is never 0).
		f.maxEnd = append(f.maxEnd, uint32(maxEnd))
	}
	f.dirty = false
}

// sortedByLenDesc reports whether the routes are already in descending
// prefix-length order (the alias-without-copy fast path).
func sortedByLenDesc(rs []route) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].prefix.Bits() > rs[i-1].prefix.Bits() {
			return false
		}
	}
	return true
}

// lookupBlock finds the host-specificity block covering v, earliest
// installed first. Binary search lands on the last block starting at or
// before v; the backward scan is bounded by the running maximum of block
// ends, so with the disjoint blocks topology builders install it checks
// exactly one candidate.
func (f *fib) lookupBlock(v uint32) *Link {
	// First index whose block starts strictly after v.
	lo, hi := 0, len(f.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.blocks[mid].first <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var via *Link
	best := int32(-1)
	for j := lo - 1; j >= 0; j-- {
		if end := f.maxEnd[j]; end != 0 && end <= v {
			break // no earlier block can reach v
		}
		b := &f.blocks[j]
		if b.contains(v) && (best < 0 || b.idx < best) {
			best, via = b.idx, b.lookup(v)
		}
	}
	return via
}

// lookupRoute returns the best route for dst, or nil: exact host routes,
// then block/range routes (host specificity), then longest prefix.
func (n *Node) lookupRoute(dst netip.Addr) *Link {
	if n.fib.dirty {
		n.compileFIB()
	}
	f := &n.fib
	if f.hosts != nil {
		if l, ok := f.hosts[dst]; ok {
			return l
		}
	}
	if len(f.blocks) > 0 && dst.Is4() {
		if l := f.lookupBlock(ipv4ToUint(dst)); l != nil {
			return l
		}
	}
	for _, r := range f.prefixes {
		if r.prefix.Contains(dst) {
			return r.link
		}
	}
	return nil
}

// dijkstraScratch holds per-source Dijkstra state, reused across the
// sources of one BuildRoutes call (and across calls) so route compilation
// on large topologies doesn't thrash the allocator.
type dijkstraScratch struct {
	dist    []float64
	first   []*Link
	visited []bool
	heap    []heapItem // binary heap of (dist, node id); stale entries skipped
}

type heapItem struct {
	dist float64
	id   int
}

func (d *dijkstraScratch) reset(n int) {
	if cap(d.dist) < n {
		d.dist = make([]float64, n)
		d.first = make([]*Link, n)
		d.visited = make([]bool, n)
	}
	d.dist = d.dist[:n]
	d.first = d.first[:n]
	d.visited = d.visited[:n]
	for i := range d.dist {
		d.dist[i] = math.Inf(1)
		d.first[i] = nil
		d.visited[i] = false
	}
	d.heap = d.heap[:0]
}

func (d *dijkstraScratch) push(it heapItem) {
	d.heap = append(d.heap, it)
	i := len(d.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if d.heap[i].dist >= d.heap[p].dist {
			break
		}
		d.heap[i], d.heap[p] = d.heap[p], d.heap[i]
		i = p
	}
}

func (d *dijkstraScratch) pop() heapItem {
	top := d.heap[0]
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap = d.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && d.heap[l].dist < d.heap[m].dist {
			m = l
		}
		if r < n && d.heap[r].dist < d.heap[m].dist {
			m = r
		}
		if m == i {
			return top
		}
		d.heap[i], d.heap[m] = d.heap[m], d.heap[i]
		i = m
	}
}

// runDijkstra fills scratch with shortest-path distances and first-hop
// links from src.
func (s *Simulator) runDijkstra(src *Node) *dijkstraScratch {
	d := &s.dijkstra
	d.reset(len(s.nodeList))
	d.dist[src.id] = 0
	d.push(heapItem{0, src.id})
	for len(d.heap) > 0 {
		it := d.pop()
		if d.visited[it.id] {
			continue
		}
		d.visited[it.id] = true
		cur := s.nodeList[it.id]
		for _, l := range cur.links {
			dir := l.dir(cur)
			if dir == nil {
				continue
			}
			next := l.Peer(cur)
			nd := it.dist + dir.cfg.cost()
			if nd < d.dist[next.id] {
				d.dist[next.id] = nd
				if cur == src {
					d.first[next.id] = l
				} else {
					d.first[next.id] = d.first[cur.id]
				}
				d.push(heapItem{nd, next.id})
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
	for _, src := range s.nodes {
		d := s.runDijkstra(src)
		// Install host routes for every reachable node's addresses.
		src.ClearRoutes()
		for id, l := range d.first {
			if l == nil {
				continue
			}
			for _, a := range s.nodeList[id].addrs {
				src.AddRoute(netip.PrefixFrom(a, a.BitLen()), l)
			}
		}
		// Anycast: route to the nearest member.
		for aAddr, members := range s.anycast {
			var bestLink *Link
			best := math.Inf(1)
			for _, m := range members {
				if m == src {
					bestLink = nil
					best = 0
					break
				}
				if dm := d.dist[m.id]; dm < best {
					best = dm
					bestLink = d.first[m.id]
				}
			}
			if best == 0 && bestLink == nil {
				continue // src itself serves the anycast address
			}
			if bestLink != nil {
				src.AddRoute(netip.PrefixFrom(aAddr, aAddr.BitLen()), bestLink)
			}
		}
	}
}
