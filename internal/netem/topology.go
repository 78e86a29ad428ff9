package netem

import (
	"fmt"
	"net/netip"
	"slices"
	"time"
)

// FanoutSpec parameterizes the canonical paper topology at scale: outside
// users reach a supportive ISP through a discriminatory transit network;
// behind the supportive ISP's border (where the neutralizer and its
// anycast address live) an edge tier fans out to N customer hosts.
//
//	outside[i] ── transit ── border ──┬── edge0 ──┬── host0
//	                        (anycast) │           ├── host1 …
//	                                  └── edge1 ──┴── …
//
// The builder installs hierarchical routes directly — hosts default
// upward, routers hold host routes for their own subtree plus a default —
// so stamping out a 10k-host metro costs O(hosts), not the
// O(n·m·log n) of a global BuildRoutes.
type FanoutSpec struct {
	// Hosts is the number of customer hosts (N; tens of thousands OK).
	Hosts int
	// HostsPerEdge bounds the fan-out of one edge router (default 256).
	HostsPerEdge int
	// Outside is the number of outside user nodes (default 1).
	Outside int
	// Anycast is the neutralizer service address announced at the border
	// (default 10.200.0.1).
	Anycast netip.Addr
	// HostLink, EdgeLink, TransitLink, OutsideLink configure the
	// host-edge, edge-border, border-transit and transit-outside links.
	// Zero values mean 1ms delay, infinite rate, default queue.
	HostLink, EdgeLink, TransitLink, OutsideLink LinkConfig

	// CustomerNet and OutsideNet override the fan-out's address blocks
	// (defaults 10.64.0.0/10 and 172.16.0.0/12). BuildBackbone stamps
	// one metro per disjoint block pair; host capacity is validated
	// against the block size.
	CustomerNet, OutsideNet netip.Prefix
	// NamePrefix prefixes every named node ("m3/" makes "m3/border"), so
	// multiple fan-outs can share a simulator.
	NamePrefix string
	// Shard, when positive, pins the whole fan-out onto that shard id,
	// already declared with SetShardCount. This is how BuildBackbone
	// gives each metro its own shard without the per-edge shard
	// explosion of ShardSubtrees — cross-shard outboxes are O(shards²),
	// so a million-host backbone wants dozens of shards, not thousands.
	// Mutually exclusive with ShardSubtrees.
	Shard int
	// ShardSubtrees partitions the fan-out for the parallel engine:
	// the transit network and the outside users stay in shard 0, the
	// border (where the neutralizer runs) gets shard 1, and each edge
	// router with its customer hosts gets its own shard — so the
	// outside world, the neutralizer, and the customer subtrees
	// pipeline across workers. Shard assignment depends only on the
	// topology, never on the worker count, which is what keeps seeded
	// runs bit-identical at any Simulator.SetWorkers setting. Requires
	// TransitLink and EdgeLink to keep a positive propagation delay
	// (they bound the engine's conservative lookahead).
	ShardSubtrees bool
}

// Fanout is a built fan-out topology with handles to every tier.
type Fanout struct {
	Sim  *Simulator
	Spec FanoutSpec

	// Border is the supportive ISP's border router: the anycast member
	// where experiments attach the neutralizer.
	Border *Node
	// Transit is the discriminatory middle network's router: where
	// experiments attach isp policies and eavesdroppers.
	Transit *Node
	Outside []*Node
	Edges   []*Node
	// EdgeLinks[e] is the border↔edge e link — where BuildBackbone's
	// fluid background aggregates attach.
	EdgeLinks []*Link
	Hosts     []*Node

	// CustomerNet covers every host address (the supportive ISP's block).
	CustomerNet netip.Prefix
	// OutsideNet covers every outside user address.
	OutsideNet netip.Prefix
}

// Default single-fanout addressing plan: hosts get consecutive addresses
// starting at CustomerNet's base + 1 (default 10.64.0.0/10: capacity
// 2²²−1 hosts, checked against Spec.Hosts at build time, not implied),
// outside users likewise in OutsideNet (default 172.16.0.0/12). Multi-
// metro builds override both per metro; BuildBackbone's carve of the
// 10.0.0.0/9 space is validated against overlap there.
var (
	fanoutCustomerNet = netip.MustParsePrefix("10.64.0.0/10")
	fanoutOutsideNet  = netip.MustParsePrefix("172.16.0.0/12")
	fanoutAnycast     = netip.MustParseAddr("10.200.0.1")
	defaultRoute      = netip.MustParsePrefix("0.0.0.0/0")
)

const defaultHostsPerEdge = 256

func addrAt(base netip.Prefix, i int) netip.Addr {
	return uintToIPv4(ipv4ToUint(base.Addr()) + 1 + uint32(i))
}

func ipv4ToUint(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func uintToIPv4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func defaultLink(c LinkConfig) LinkConfig {
	if c == (LinkConfig{}) {
		return LinkConfig{Delay: time.Millisecond}
	}
	return c
}

// HostAddr returns the address of customer host i.
func (f *Fanout) HostAddr(i int) netip.Addr { return addrAt(f.CustomerNet, i) }

// OutsideAddr returns the address of outside user i.
func (f *Fanout) OutsideAddr(i int) netip.Addr { return addrAt(f.OutsideNet, i) }

// BuildFanout stamps the fan-out topology onto sim. With the default
// address blocks it assumes the plan above is unclaimed; multi-fanout
// simulators (BuildBackbone) pass disjoint CustomerNet/OutsideNet blocks
// and a NamePrefix per metro.
//
// Routing is prefix-compressed: the border installs one range route per
// edge router (the edge's contiguous slice of CustomerNet) and each edge
// installs a single block route — a flat offset-indexed array of host
// links — instead of a /32 route per customer. Route state per router
// is O(edges), not O(hosts). Host storage and the node list are sized
// before the first host is written, as in BuildBackbone.
func BuildFanout(sim *Simulator, spec FanoutSpec) (*Fanout, error) {
	return buildFanout(sim, spec, nil, nil)
}

// buildFanout is BuildFanout over host storage the caller sized: nodes
// and links hold spec.Hosts zero values each, or are nil to be made here
// once the spec is valid.
func buildFanout(sim *Simulator, spec FanoutSpec, nodes []Node, links []Link) (*Fanout, error) {
	if spec.Hosts <= 0 {
		return nil, fmt.Errorf("netem: fanout needs at least 1 host, got %d", spec.Hosts)
	}
	if spec.HostsPerEdge <= 0 {
		spec.HostsPerEdge = defaultHostsPerEdge
	}
	if spec.Outside <= 0 {
		spec.Outside = 1
	}
	if !spec.Anycast.IsValid() {
		spec.Anycast = fanoutAnycast
	}
	if !spec.CustomerNet.IsValid() {
		spec.CustomerNet = fanoutCustomerNet
	}
	if !spec.OutsideNet.IsValid() {
		spec.OutsideNet = fanoutOutsideNet
	}
	if !spec.CustomerNet.Addr().Is4() || !spec.OutsideNet.Addr().Is4() {
		return nil, fmt.Errorf("netem: fanout address blocks must be IPv4")
	}
	if uint64(spec.Hosts) >= uint64(1)<<(32-uint(spec.CustomerNet.Bits())) {
		return nil, fmt.Errorf("netem: %d hosts exceed %v", spec.Hosts, spec.CustomerNet)
	}
	if uint64(spec.Outside) >= uint64(1)<<(32-uint(spec.OutsideNet.Bits())) {
		return nil, fmt.Errorf("netem: %d outside users exceed %v", spec.Outside, spec.OutsideNet)
	}
	if spec.ShardSubtrees && spec.Shard > 0 {
		return nil, fmt.Errorf("netem: ShardSubtrees and Shard are mutually exclusive")
	}
	if spec.ShardSubtrees && (defaultLink(spec.TransitLink).Delay <= 0 || defaultLink(spec.EdgeLink).Delay <= 0) {
		return nil, fmt.Errorf("netem: ShardSubtrees needs positive TransitLink and EdgeLink delay (the conservative lookahead)")
	}
	if spec.Shard < 0 || spec.Shard >= sim.ShardCount() {
		return nil, fmt.Errorf("netem: fanout shard %d outside declared range [0,%d)", spec.Shard, sim.ShardCount())
	}

	nEdges := (spec.Hosts + spec.HostsPerEdge - 1) / spec.HostsPerEdge
	if nodes == nil {
		nodes, links = make([]Node, spec.Hosts), make([]Link, spec.Hosts)
	}
	sim.nodeList = slices.Grow(sim.nodeList, 2+spec.Outside+spec.Hosts+nEdges)
	f := &Fanout{
		Sim:         sim,
		Spec:        spec,
		CustomerNet: spec.CustomerNet,
		OutsideNet:  spec.OutsideNet,
	}
	name := func(base string) string { return spec.NamePrefix + base }
	border, err := sim.AddNode(name("border"))
	if err != nil {
		return nil, err
	}
	transit, err := sim.AddNode(name("transit"))
	if err != nil {
		return nil, err
	}
	f.Border, f.Transit = border, transit
	edgeShard := func(e int) int { return 0 }
	switch {
	case spec.ShardSubtrees:
		sim.SetShardCount(2 + nEdges)
		border.SetShard(1)
		edgeShard = func(e int) int { return 2 + e }
	case spec.Shard > 0:
		border.SetShard(spec.Shard)
		transit.SetShard(spec.Shard)
		edgeShard = func(int) int { return spec.Shard }
	}
	upLink := sim.Connect(transit, border, defaultLink(spec.TransitLink))
	border.AddRoute(defaultRoute, upLink)
	transit.AddRoute(f.CustomerNet, upLink)
	transit.AddRoute(netip.PrefixFrom(spec.Anycast, spec.Anycast.BitLen()), upLink)
	sim.AddAnycast(spec.Anycast, border)

	for o := 0; o < spec.Outside; o++ {
		out, err := sim.AddNode(name(fmt.Sprintf("outside%d", o)), f.OutsideAddr(o))
		if err != nil {
			return nil, err
		}
		if spec.Shard > 0 {
			out.SetShard(spec.Shard)
		}
		l := sim.Connect(out, transit, defaultLink(spec.OutsideLink))
		out.AddRoute(defaultRoute, l)
		transit.AddRoute(netip.PrefixFrom(out.Addr(), 32), l)
		f.Outside = append(f.Outside, out)
	}

	// Customer hosts are slab hosts (addHostBlock), one block per shard:
	// each is written once, on its edge's shard. Resolve them through
	// Fanout.Hosts, not Simulator.Node.
	per, id := spec.Hosts, len(sim.nodeList)
	if spec.ShardSubtrees {
		per = spec.HostsPerEdge
	}
	for lo := 0; lo < spec.Hosts; lo += per {
		sh := sim.shards[edgeShard(lo/spec.HostsPerEdge)]
		if err := sim.addHostBlock(f.HostAddr(lo), nodes[lo:min(lo+per, spec.Hosts)], sh); err != nil {
			return nil, err
		}
	}
	f.Hosts = sim.nodeList[id:len(sim.nodeList):len(sim.nodeList)]
	hostCfg := defaultLink(spec.HostLink)
	f.Edges = make([]*Node, 0, nEdges)
	f.EdgeLinks = make([]*Link, 0, nEdges)
	for e := 0; e < nEdges; e++ {
		edge, err := sim.AddNode(name(fmt.Sprintf("edge%d", e)))
		if err != nil {
			return nil, err
		}
		if sh := edgeShard(e); sh != 0 {
			edge.SetShard(sh)
		}
		lo, hi := e*spec.HostsPerEdge, min((e+1)*spec.HostsPerEdge, spec.Hosts)
		edge.rt.links = make([]*Link, 0, 1+hi-lo) // the border's link, then each host's
		down := sim.Connect(border, edge, defaultLink(spec.EdgeLink))
		edge.AddRoute(defaultRoute, down)
		f.Edges = append(f.Edges, edge)
		f.EdgeLinks = append(f.EdgeLinks, down)
		for i := lo; i < hi; i++ {
			nodes[i].AddRoute(defaultRoute, sim.connectInto(&links[i], edge, &nodes[i], hostCfg, hostCfg))
		}
		// The block route reads the host links in place, in address order.
		if err := edge.AddBlockRoute(f.HostAddr(lo), edge.rt.links[1:]); err != nil {
			return nil, err
		}
		if err := border.AddRangeRoute(f.HostAddr(lo), hi-lo, down); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// DeliveryCount tallies customer-host deliveries: one count per shard,
// each on its own cache line, so hosts on different shards never write
// the same line during a parallel run. The simulator's
// netem_fanout_delivered_packets_total family sums every tally.
type DeliveryCount struct {
	counts []*paddedCount
}

// paddedCount is a count alone on its cache line.
type paddedCount struct {
	n uint64
	_ [56]byte
}

func (c *paddedCount) count() *uint64 { return &c.n }

// Total sums the per-shard tallies; call it after (or between) runs.
func (d *DeliveryCount) Total() uint64 { return sum(d.counts, (*paddedCount).count) }

// CountDeliveries installs one shared counting handler per shard on
// every customer host and returns the tally: the standard measure wiring
// for scale experiments, where per-host closures would cost N
// allocations — and where one shared counter would be a data race across
// shards. Each call makes a fresh tally, so Total counts only its own
// deliveries; the registry family counts every tally's.
func (f *Fanout) CountDeliveries() *DeliveryCount {
	s := f.Sim
	d := &DeliveryCount{counts: make([]*paddedCount, s.ShardCount())}
	for i := range d.counts {
		d.counts[i] = new(paddedCount)
	}
	// The family sums every tally; the first call registers it
	// (get-or-create ignores the later ones).
	s.tallied = append(s.tallied, d.counts...)
	s.reg.CounterFunc("netem_fanout_delivered_packets_total",
		"Customer-host deliveries counted by Fanout.CountDeliveries.",
		func() uint64 { return sum(s.tallied, (*paddedCount).count) })
	handlers := make([]Handler, s.ShardCount())
	for _, host := range f.Hosts {
		id := host.ShardID()
		if handlers[id] == nil {
			c := d.counts[id]
			handlers[id] = func(time.Time, []byte) { c.n++ }
		}
		host.SetHandler(handlers[id])
	}
	return d
}
