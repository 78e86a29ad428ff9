// Package netem is a deterministic discrete-event network emulator: the
// substrate standing in for the paper's testbed and for the Internet
// topology of its Figure 1, scaled so that metro-sized scenarios (tens of
// thousands of customer hosts behind one neutralizer domain) run in
// seconds.
//
// A Simulator owns a virtual clock — one int64 of nanoseconds inside the
// engine, time.Time only at the exported edge — and a slice-backed heap
// of typed events; the hot-path events (link departure/arrival, policy
// delay) carry their operands inline, so forwarding a packet allocates
// nothing in steady state. Packets are pooled, refcounted buffers
// (Packet) that cross the whole path — links, transit hooks, handlers —
// without per-hop copies. Nodes (hosts and routers) are connected by Links with
// propagation delay, transmission rate and bounded egress queues. Each
// node's route list is compiled into an indexed FIB (exact-match map for
// host routes plus a longest-prefix table) the first time it is used
// after a topology change. Routing tables are computed with Dijkstra over
// link costs (BuildRoutes) or stamped out hierarchically by the Topology
// builder (BuildFanout); anycast groups resolve to the nearest member,
// which is how the neutralizer's anycast address is modelled. Transit
// hooks let middle networks (the discriminatory ISPs of package isp)
// observe, delay, or drop packets in flight. Packet events (send,
// forward, deliver, the drop kinds) have one sink: an attached
// obs.FlightRecorder, which samples them into bounded per-shard rings.
//
// The engine is sharded: a Simulator is a facade over one or more
// shards, each owning its own event queue, packet freelist, and
// splitmix-seeded PRNG, and there is one run loop: conservative epochs
// bounded by the minimum cross-shard link delay, with cross-shard
// packets merged deterministically at each epoch barrier, so a seeded
// run is bit-identical at every worker count. Topology builders
// partition nodes across shards (Node.SetShard,
// FanoutSpec.ShardSubtrees) and run them on several workers
// (Simulator.SetWorkers). An unsharded simulator (the default) is the
// one-shard case of the same loop — nothing crosses a shard, so a Run
// is one unbounded epoch, handlers may freely call back into the
// simulator, and with a fixed seed runs are fully reproducible. See
// shard.go and parallel.go.
package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

// Errors returned by the simulator.
var (
	ErrNoRoute       = errors.New("netem: no route to destination")
	ErrAddrInUse     = errors.New("netem: address already assigned")
	ErrNotConnected  = errors.New("netem: nodes are not connected")
	ErrTTLExhausted  = errors.New("netem: TTL exhausted")
	ErrMalformedIPv4 = errors.New("netem: malformed IPv4 packet")
)

// PolicyCause labels the mechanism behind a policy verdict or drop, so
// trace events are attributable without correlating against policy
// counters by hand.
type PolicyCause uint8

// Policy causes carried on verdicts and trace events; obs owns the
// numbering and the names.
const (
	CauseNone        = PolicyCause(obs.CauseNone)
	CauseRule        = PolicyCause(obs.CauseRule)        // rule-list match (package isp)
	CauseTokenBucket = PolicyCause(obs.CauseTokenBucket) // per-class rate policing (package dpi)
	CauseRandomDrop  = PolicyCause(obs.CauseRandomDrop)  // probabilistic per-class drop (package dpi)
	CauseClassDelay  = PolicyCause(obs.CauseClassDelay)  // per-class added delay (package dpi)
	CauseQueueFull   = PolicyCause(obs.CauseQueueFull)   // link egress queue overflow
)

func (c PolicyCause) String() string { return obs.CauseName(uint8(c)) }

// Verdict is a transit hook's decision about a packet.
type Verdict struct {
	// Drop discards the packet.
	Drop bool
	// Delay holds the packet for the given duration before it continues.
	Delay time.Duration
	// Cause and Class attribute the verdict for tracing: which policing
	// mechanism produced it and which traffic class it targeted (dpi
	// class numbering; 0 when classless). Both ride onto the packet's
	// next trace event.
	Cause PolicyCause
	Class uint8
}

// Deliver is the zero Verdict: pass the packet unchanged.
var Deliver = Verdict{}

// TransitHook inspects a packet crossing a node. Hooks run on every
// packet a node receives, before local delivery or forwarding. pkt is a
// no-copy view of the pooled buffer: the hook may read it but must not
// retain it past the call — the buffer is recycled as soon as the
// packet's journey ends.
type TransitHook func(now time.Time, node *Node, pkt []byte) Verdict

// Handler consumes packets locally delivered to a node. pkt is a no-copy
// view of the pooled buffer, valid only for the duration of the call;
// copy it (bytes.Clone) to keep it.
type Handler func(now time.Time, pkt []byte)

// TraceKind labels trace events.
type TraceKind uint8

// Trace event kinds; obs owns the numbering and the names.
const (
	TraceSend        = TraceKind(obs.KindSend)
	TraceForward     = TraceKind(obs.KindForward)
	TraceDeliver     = TraceKind(obs.KindDeliver)
	TraceDropQueue   = TraceKind(obs.KindDropQueue)
	TraceDropPolicy  = TraceKind(obs.KindDropPolicy)
	TraceDropNoRoute = TraceKind(obs.KindDropNoRoute)
	TraceDropTTL     = TraceKind(obs.KindDropTTL)
)

func (k TraceKind) String() string { return obs.KindName(uint8(k)) }

// Simulator is the discrete-event engine facade. Create with
// NewSimulator. State that events touch — queue, clock, packet pool,
// PRNG — lives in shards (one by default); the facade holds the shared
// read-only topology and delegates to shard 0 where an API predates
// sharding.
type Simulator struct {
	start       time.Time // immutable; anchors timeAt
	committed   int64     // Unix nanoseconds every shard has reached
	seed        int64
	shards      []*shard
	workers     int
	lookahead   time.Duration // min cross-shard link delay; 0 = none cross
	multi       bool          // any node assigned beyond shard 0
	planDirty   bool
	parallelRun bool // running with > 1 worker: shard-0 APIs are off-limits
	poolDebug   bool

	nodes    map[string]*Node
	nodeList []*Node
	byAddr   map[netip.Addr]*Node
	// addrBlocks indexes the contiguous leaf-host address blocks
	// registered by AddHostBlock: one entry per block instead of one
	// byAddr map entry per host (the million-host memory plan).
	addrBlocks []addrBlock
	anycast    map[netip.Addr][]*Node

	met       *simMetrics
	flight    *obs.FlightRecorder
	onBarrier []func(now time.Time)

	dijkstra dijkstraScratch
}

// NewSimulator creates a simulator whose clock starts at start and whose
// randomness derives from seed.
func NewSimulator(start time.Time, seed int64) *Simulator {
	s := &Simulator{
		start:     start,
		committed: start.UnixNano(),
		seed:      seed,
		workers:   1,
		nodes:     make(map[string]*Node),
		byAddr:    make(map[netip.Addr]*Node),
		anycast:   make(map[netip.Addr][]*Node),
		met:       newSimMetrics(),
	}
	s.shards = []*shard{newShard(s, 0, s.committed)}
	return s
}

// timeAt converts engine time (Unix nanoseconds) to the time.Time handed
// across the exported edge: start shifted by the elapsed virtual time,
// so every time a caller or callback sees carries start's location and
// equals start.Add(elapsed). The inverse is t.UnixNano().
func (s *Simulator) timeAt(ns int64) time.Time {
	return s.start.Add(time.Duration(ns - s.start.UnixNano()))
}

// now is the engine-side clock behind Now and NowNanos.
func (s *Simulator) now() int64 {
	if len(s.shards) == 1 || !s.multi {
		return s.shards[0].now
	}
	return s.committed
}

// Now returns the current virtual time: exact while execution is
// single-threaded (one shard, or shards declared but every node still
// on shard 0); for genuinely sharded simulators, the time every shard
// is known to have reached (callbacks wanting their exact event time
// use the now they receive, or Node.Now).
func (s *Simulator) Now() time.Time { return s.timeAt(s.now()) }

// Rand returns shard 0's seeded PRNG — the simulator-wide stream of
// unsharded runs. Sources on sharded topologies use Node.Rand.
func (s *Simulator) Rand() *rand.Rand { return s.shards[0].rng }

// Forwarded reports router forwarding decisions (one per transit hop).
func (s *Simulator) Forwarded() uint64 { return s.met.forwarded.Value() }

// Dropped reports the number of packets dropped anywhere in the network.
func (s *Simulator) Dropped() uint64 { return s.met.dropped.Value() }

// EventsProcessed reports how many events the loop has run; with wall
// time it yields the sim-events/sec figure the scale experiments report.
func (s *Simulator) EventsProcessed() uint64 { return s.met.events.Value() }

// QueuePushes reports how many event pushes a per-delay lane took and
// how many fell back to the heap, across all shards (a thin read over
// netem_queue_pushes_total) — the share the event queue's speed rests on.
func (s *Simulator) QueuePushes() (lane, heap uint64) {
	return s.met.lanePush.Value(), s.met.heapPush.Value()
}

// Schedule runs fn after d of virtual time on shard 0 (the whole
// simulator when unsharded). Sources on sharded topologies schedule via
// their node (Node.Schedule) so callbacks run on the owning shard;
// calling Schedule from inside a multi-worker run therefore panics —
// it would race shard 0's queue and silently break replay determinism.
func (s *Simulator) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.guardShard0()
	sh := s.shards[0]
	sh.schedule(sh.now+int64(d), event{kind: evFunc, fn: fn})
}

// ScheduleAt runs fn at absolute virtual time t (clamped to now) on
// shard 0. The multi-worker restriction of Schedule applies.
func (s *Simulator) ScheduleAt(t time.Time, fn func()) {
	s.guardShard0()
	s.shards[0].schedule(t.UnixNano(), event{kind: evFunc, fn: fn})
}

// guardShard0 turns a mid-parallel-run call to a shard-0 API (Schedule,
// ScheduleAt) into an immediate diagnostic instead of a silent data
// race: during a multi-worker run, callbacks must go through their
// node's anchored equivalents.
func (s *Simulator) guardShard0() {
	if s.parallelRun {
		panic("netem: Simulator.Schedule or ScheduleAt called during a multi-worker run; anchor to a node (Node.Schedule, Node.Send)")
	}
}

// Run processes events until every queue is empty.
func (s *Simulator) Run() { s.runLimit(noLimit) }

// RunUntil processes events with timestamps <= t, then advances the
// clock to t.
func (s *Simulator) RunUntil(t time.Time) { s.runLimit(t.UnixNano()) }

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d time.Duration) { s.runLimit(s.now() + int64(d)) }

// Node is a host or router in the emulated network.
type Node struct {
	Name string
	// Domain tags the administrative domain (ISP) the node belongs to;
	// package isp uses it to scope eavesdropping and policy.
	Domain string

	sim     *Simulator
	sh      *shard
	id      int
	addrs   []netip.Addr
	links   []*Link
	routes  []route
	blocks  []blockRoute
	fib     fib
	handler Handler
	hooks   []TransitHook
}

// AddNode creates a node with the given unique name and addresses.
func (s *Simulator) AddNode(name, domain string, addrs ...netip.Addr) (*Node, error) {
	if _, dup := s.nodes[name]; dup {
		return nil, fmt.Errorf("netem: duplicate node name %q", name)
	}
	n := &Node{Name: name, Domain: domain, sim: s, sh: s.shards[0], id: len(s.nodeList)}
	s.planDirty = true
	for _, a := range addrs {
		if _, dup := s.byAddr[a]; dup {
			return nil, fmt.Errorf("%w: %v", ErrAddrInUse, a)
		}
	}
	for _, a := range addrs {
		s.byAddr[a] = n
		n.addrs = append(n.addrs, a)
	}
	s.nodes[name] = n
	s.nodeList = append(s.nodeList, n)
	return n, nil
}

// MustAddNode is AddNode that panics on error; for topology builders.
func (s *Simulator) MustAddNode(name, domain string, addrs ...netip.Addr) *Node {
	n, err := s.AddNode(name, domain, addrs...)
	if err != nil {
		panic(err)
	}
	return n
}

// addrBlock is one AddHostBlock registration: nodes[i] owns address
// first+i.
type addrBlock struct {
	first uint32
	nodes []*Node
}

// AddHostBlock creates n leaf hosts owning the consecutive IPv4
// addresses [first, first+n), slab-allocated: one Node array, one
// address array, shared capacity for each host's single link and route,
// and a single block entry in the address index instead of n map
// entries. That drops the per-host build cost to a few hundred bytes —
// the plan that fits a million hosts in memory. The hosts are anonymous
// (Name "", not resolvable via Simulator.Node); hold the returned slice.
// They start on shard 0; assign shards with Node.SetShard as usual.
//
// The block must not overlap any registered address: other blocks are
// checked block-to-block, and every individually registered address is
// checked against the range (the named-node population is small —
// routers, not hosts — so the scan is cheap at build time).
func (s *Simulator) AddHostBlock(domain string, first netip.Addr, n int) ([]*Node, error) {
	if !first.Is4() {
		return nil, fmt.Errorf("netem: host block base %v is not IPv4", first)
	}
	v := ipv4ToUint(first)
	if n <= 0 || uint64(v)+uint64(n) > 1<<32 {
		return nil, fmt.Errorf("netem: host block [%v +%d) is empty or wraps the address space", first, n)
	}
	for i := range s.addrBlocks {
		b := &s.addrBlocks[i]
		if v < b.first+uint32(len(b.nodes)) && b.first < v+uint32(n) {
			return nil, fmt.Errorf("%w: block [%v +%d) overlaps an existing host block", ErrAddrInUse, first, n)
		}
	}
	for a := range s.byAddr {
		if a.Is4() {
			if w := ipv4ToUint(a); w-v < uint32(n) {
				return nil, fmt.Errorf("%w: %v already registered inside block [%v +%d)", ErrAddrInUse, a, first, n)
			}
		}
	}
	slab := make([]Node, n)
	addrSlab := make([]netip.Addr, n)
	linkSlab := make([]*Link, n)
	routeSlab := make([]route, n)
	nodes := make([]*Node, n)
	id := len(s.nodeList)
	s.nodeList = append(s.nodeList, nodes...) // reserve; filled below
	for i := range slab {
		nd := &slab[i]
		addrSlab[i] = uintToIPv4(v + uint32(i))
		*nd = Node{
			Domain: domain,
			sim:    s,
			sh:     s.shards[0],
			id:     id + i,
			addrs:  addrSlab[i : i+1 : i+1],
			// Full-slice caps: the host's one link and one default route
			// append into the shared slabs instead of allocating.
			links:  linkSlab[i : i : i+1],
			routes: routeSlab[i : i : i+1],
		}
		nodes[i] = nd
		s.nodeList[id+i] = nd
	}
	s.addrBlocks = append(s.addrBlocks, addrBlock{first: v, nodes: nodes})
	s.planDirty = true
	return nodes, nil
}

// AddAnycast registers addr as an anycast address served by the given
// nodes. Routing resolves it to the nearest member.
func (s *Simulator) AddAnycast(addr netip.Addr, members ...*Node) {
	s.anycast[addr] = append(s.anycast[addr], members...)
	for _, m := range members {
		m.fib.anycast = true
	}
}

// Addr returns the node's first address (its canonical identity), or the
// zero Addr for address-less transit routers.
func (n *Node) Addr() netip.Addr {
	if len(n.addrs) == 0 {
		return netip.Addr{}
	}
	return n.addrs[0]
}

// AddAddr assigns an extra address to the node at runtime (used by the
// neutralizer's dynamic-address QoS remedy). Routes must be reinstalled
// by the caller (Simulator.BuildRoutes) for remote reachability, or the
// address can be covered by an existing prefix route.
func (n *Node) AddAddr(a netip.Addr) error {
	if _, dup := n.sim.byAddr[a]; dup {
		return fmt.Errorf("%w: %v", ErrAddrInUse, a)
	}
	n.sim.byAddr[a] = n
	n.addrs = append(n.addrs, a)
	return nil
}

// RemoveAddr releases an address previously added with AddAddr.
func (n *Node) RemoveAddr(a netip.Addr) {
	if n.sim.byAddr[a] == n {
		delete(n.sim.byAddr, a)
	}
	for i, x := range n.addrs {
		if x == a {
			n.addrs = append(n.addrs[:i], n.addrs[i+1:]...)
			break
		}
	}
}

// HasAddr reports whether a is one of the node's addresses.
func (n *Node) HasAddr(a netip.Addr) bool {
	for _, x := range n.addrs {
		if x == a {
			return true
		}
	}
	return false
}

// SetHandler installs the local-delivery handler.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// AddTransitHook installs a hook run on every packet the node receives.
func (n *Node) AddTransitHook(h TransitHook) { n.hooks = append(n.hooks, h) }

// Send originates a packet from node n. The packet must be a serialized
// IPv4 datagram; it is copied into a pooled buffer (the one copy of its
// journey). Returns ErrNoRoute if the destination is unreachable.
func (n *Node) Send(pkt []byte) error {
	if len(pkt) < wire.IPv4HeaderLen {
		return ErrMalformedIPv4
	}
	return n.SendPacket(n.NewPacket(pkt))
}

// SendPacket originates a pooled packet from node n, taking ownership of
// one reference (the packet is released on error, drop, or delivery).
// Callers with a template packet avoid Send's intermediate []byte:
//
//	_ = node.SendPacket(node.NewPacket(template))
func (n *Node) SendPacket(p *Packet) error {
	if len(p.Pkt) < wire.IPv4HeaderLen {
		p.Release()
		return ErrMalformedIPv4
	}
	n.sh.stampJourney(p)
	n.sh.emit(TraceSend, n, p)
	return n.dispatch(p, true)
}

// SendPacketProc originates a pooled packet after proc of virtual
// processing time, attributing that time to the journey's Proc
// component — how the neutralizer's scratch path accounts for per-packet
// processing cost. The journey's send event fires now; the packet enters
// the network proc later. proc <= 0 degenerates to SendPacket.
func (n *Node) SendPacketProc(p *Packet, proc time.Duration) error {
	if proc <= 0 {
		return n.SendPacket(p)
	}
	if len(p.Pkt) < wire.IPv4HeaderLen {
		p.Release()
		return ErrMalformedIPv4
	}
	n.sh.stampJourney(p)
	n.sh.emit(TraceSend, n, p)
	p.attrProc += int64(proc)
	n.sh.schedule(n.sh.now+int64(proc), event{kind: evProc, node: n, pkt: p})
	return nil
}

// dispatch delivers locally or forwards toward the destination. origin
// marks packets sent by this node itself (no transit hooks, no TTL work).
// dispatch owns p: every exit path releases it or hands it on.
func (n *Node) dispatch(p *Packet, origin bool) error {
	_, dst, err := wire.IPv4Addrs(p.Pkt)
	if err != nil {
		p.Release()
		return ErrMalformedIPv4
	}
	if origin || len(n.hooks) == 0 {
		return n.route(p, dst, origin)
	}
	// Transit/ingress policy.
	var delay time.Duration
	var cause PolicyCause
	var class uint8
	now := n.Now()
	for _, h := range n.hooks {
		v := h(now, n, p.Pkt)
		if v.Drop {
			p.cause, p.class = v.Cause, v.Class
			n.sh.emit(TraceDropPolicy, n, p)
			p.Release()
			return nil
		}
		if v.Delay > delay {
			delay, cause, class = v.Delay, v.Cause, v.Class
		}
	}
	if delay > 0 {
		p.attrPolicy += int64(delay)
		p.cause, p.class = cause, class
		n.sh.schedule(n.sh.now+int64(delay), event{kind: evDelayed, node: n, pkt: p})
		return nil
	}
	return n.dispatchAfterPolicy(p)
}

// dispatchAfterPolicy resumes a transit packet once its hooks, and any
// delay they imposed, have run: they may write it, so it is parsed again.
func (n *Node) dispatchAfterPolicy(p *Packet) error {
	_, dst, err := wire.IPv4Addrs(p.Pkt)
	if err != nil {
		p.Release()
		return ErrMalformedIPv4
	}
	return n.route(p, dst, false)
}

// route delivers p locally or forwards it toward dst. origin marks
// packets originated by this node, which are not TTL-decremented and do
// not count as forwarding. Only a member of some anycast group probes the
// simulator's anycast map; every other hop decides from its own fields.
func (n *Node) route(p *Packet, dst netip.Addr, origin bool) error {
	if n.HasAddr(dst) || n.fib.anycast && slices.Contains(n.sim.anycast[dst], n) {
		n.deliver(p)
		return nil
	}
	link := n.lookupRoute(dst)
	if link == nil {
		n.sh.emit(TraceDropNoRoute, n, p)
		p.Release()
		return ErrNoRoute
	}
	if !origin {
		alive, err := wire.DecrementTTL(p.Pkt)
		if err != nil {
			p.Release()
			return ErrMalformedIPv4
		}
		if !alive {
			n.sh.emit(TraceDropTTL, n, p)
			p.Release()
			return ErrTTLExhausted
		}
		n.sh.emit(TraceForward, n, p)
	}
	link.transmit(n, p)
	return nil
}

// deliver hands the packet to the local handler, then releases the
// buffer: handler views are only valid during the call.
func (n *Node) deliver(p *Packet) {
	n.sh.emit(TraceDeliver, n, p)
	if n.handler != nil {
		n.handler(n.Now(), p.Pkt)
	}
	p.Release()
}
