// Package netem is a deterministic discrete-event network emulator: the
// substrate standing in for the paper's testbed and for the Internet
// topology of its Figure 1, scaled so that metro-sized scenarios (tens of
// thousands of customer hosts behind one neutralizer domain) run in
// seconds.
//
// A Simulator owns a virtual clock — one int64 of nanoseconds inside the
// engine, time.Time only at the exported edge — and a queue of typed
// 40-byte event values (event.go states the layout; TestEventSize holds
// it); the hot-path events (link departure/arrival, policy delay) carry
// their operands inline, so forwarding a packet allocates nothing in
// steady state. Packets are pooled, refcounted buffers
// (Packet) that cross the whole path — links, transit hooks, handlers —
// without per-hop copies. Nodes (hosts and routers) are connected by Links with
// propagation delay, transmission rate and bounded egress queues. Each
// node's routes are installed straight into its FIB — disjoint host
// routes (addresses and ranges) plus a longest-prefix list, sorted in
// place by the first lookup after a change. Routing tables are computed
// with Dijkstra over link costs (BuildRoutes) or stamped out by the Topology
// builder (BuildFanout); anycast groups resolve to the nearest member,
// which is how the neutralizer's anycast address is modelled, and a
// member holds each group address it serves behind its own addresses.
// Transit hooks let middle networks (the discriminatory ISPs of package
// isp) observe, delay, or drop packets in flight. Packet events (send,
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
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"
	"unsafe"

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
	// registered by addHostBlock: one entry per block instead of one
	// byAddr map entry per host (the million-host memory plan).
	addrBlocks []addrBlock

	// reg holds the engine's families (metrics.go); the coordinator counts
	// epochs and the ordered shard pairs its barriers drained / never had
	// to visit, and times each epoch.
	reg                             *obs.Registry
	epochs, mailDrained, mailSilent uint64
	epochWall                       *obs.Histogram
	// Every attached FluidFlow, and every DeliveryCount's per-shard
	// counts: what the netem_fluid_* and fanout families sum.
	fluids    []*FluidFlow
	tallied   []*paddedCount
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
		reg:       obs.NewRegistry(),
	}
	s.registerMetrics()
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
func (s *Simulator) Rand() *rand.Rand { return s.shards[0].rand() }

// Forwarded reports router forwarding decisions (one per transit hop).
func (s *Simulator) Forwarded() uint64 {
	return sum(s.shards, func(sh *shard) *uint64 { return &sh.nForwarded })
}

// Dropped reports the number of packets dropped anywhere in the network.
func (s *Simulator) Dropped() uint64 {
	return sum(s.shards, func(sh *shard) *uint64 { return &sh.nDropped })
}

// EventsProcessed reports how many events the loop has run; with wall
// time it yields the sim-events/sec figure the scale experiments report.
func (s *Simulator) EventsProcessed() uint64 {
	return sum(s.shards, func(sh *shard) *uint64 { return &sh.nEvents })
}

// Schedule runs fn after d of virtual time on shard 0 (the whole
// simulator when unsharded). Sources on sharded topologies schedule via
// their node (Node.Schedule) so callbacks run on the owning shard;
// calling Schedule from inside a multi-worker run therefore panics —
// it would race shard 0's queue and silently break replay determinism.
func (s *Simulator) Schedule(d time.Duration, fn func()) {
	s.guardShard0()
	sh := s.shards[0]
	sh.schedule(sh.now+int64(d), funcEvent(fn))
}

// ScheduleAt runs fn at absolute virtual time t (clamped to now) on
// shard 0. The multi-worker restriction of Schedule applies.
func (s *Simulator) ScheduleAt(t time.Time, fn func()) {
	s.guardShard0()
	s.shards[0].schedule(t.UnixNano(), funcEvent(fn))
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

// RunFor processes events with timestamps up to d from now, inclusive,
// then advances the clock by d.
func (s *Simulator) RunFor(d time.Duration) { s.runLimit(s.now() + int64(d)) }

// Node is a host or router in the emulated network. What a leaf host
// reads — its one address, its one link, its default route, its handler —
// is inline, in 72 bytes (TestNodeSize). Every list — addresses, links,
// route tables, hooks — and a name are router-side state behind rt,
// which AddNode sets and which stays nil on a slab host (addHostBlock)
// until it needs a second address or link (TestHostsHoldNoRouterState,
// TestHostBecomesRouter).
type Node struct {
	sh      *shard
	id      int
	addr    netip.Addr // a leaf host's address; rt.addrs once rt is set
	uplink  *Link      // a leaf host's link; rt.links once rt is set
	fib     fib
	handler Handler
	rt      *router
}

// router is the state only a named node or a router carries.
type router struct {
	name     string
	addrs    []netip.Addr // own addresses, then the anycast groups served
	links    []*Link
	hosts    []hostRoute
	prefixes []route
	hooks    []TransitHook
	// anycast counts the group addresses at the tail of addrs
	// (AddAnycast); dirty marks hosts and prefixes unsorted.
	anycast uint32
	dirty   bool
}

// router returns n's router-side state, making it on first use: a leaf
// host's inline address and link move into its lists.
func (n *Node) router() *router {
	if n.rt == nil {
		n.rt = &router{addrs: slices.Clone(n.addrList()), links: slices.Clone(n.linkList())}
		n.addr, n.uplink = netip.Addr{}, nil
	}
	return n.rt
}

// addrList is every address n serves, its own then the anycast groups
// it is a member of; linkList is its links. A leaf host's lists are
// one-element views of its inline fields, made without allocating.
func (n *Node) addrList() []netip.Addr {
	if n.rt != nil {
		return n.rt.addrs
	}
	return unsafe.Slice(&n.addr, 1) // addHostBlock gave it one
}

func (n *Node) linkList() []*Link {
	if n.rt != nil {
		return n.rt.links
	}
	if n.uplink == nil {
		return nil
	}
	return unsafe.Slice(&n.uplink, 1)
}

// addLink appends l to n's links, inline while it is a leaf host's only one.
func (n *Node) addLink(l *Link) {
	if n.rt == nil && n.uplink == nil {
		n.uplink = l
		return
	}
	r := n.router()
	r.links = append(r.links, l)
}

// Name is the node's unique name; "" for a slab host.
func (n *Node) Name() string {
	if n.rt == nil {
		return ""
	}
	return n.rt.name
}

// AddNode creates a node with the given unique name and addresses.
func (s *Simulator) AddNode(name string, addrs ...netip.Addr) (*Node, error) {
	if _, dup := s.nodes[name]; dup {
		return nil, fmt.Errorf("netem: duplicate node name %q", name)
	}
	n := &Node{sh: s.shards[0], id: len(s.nodeList), rt: &router{name: name}}
	s.planDirty = true
	for i, a := range addrs { // registered one by one: a repeat is in use
		if err := s.checkFree(a, 1); err != nil {
			for _, b := range addrs[:i] {
				delete(s.byAddr, b)
			}
			return nil, err
		}
		s.byAddr[a] = n
	}
	n.rt.addrs = append(n.rt.addrs, addrs...)
	s.nodes[name] = n
	s.nodeList = append(s.nodeList, n)
	return n, nil
}

// MustAddNode is AddNode that panics on error; for topology builders.
// Its second argument is ignored: it was an administrative-domain tag
// that nothing read. It stays in the signature while the benchmark's
// engine probe passes it.
func (s *Simulator) MustAddNode(name, _ string, addrs ...netip.Addr) *Node {
	n, err := s.AddNode(name, addrs...)
	if err != nil {
		panic(err)
	}
	return n
}

// addrBlock is one host block's registration: hosts leaf hosts own the
// addresses from first on.
type addrBlock struct{ first, hosts uint32 }

// checkFree returns ErrAddrInUse if a host block or a node (AddNode,
// AddAddr) owns an address of [first, first+n): the one ownership check.
// Only a host block asks for n > 1; it scans the nodes' addresses, a
// small population (routers, not hosts), so that is cheap at build time.
func (s *Simulator) checkFree(first netip.Addr, n uint32) error {
	_, used := s.byAddr[first]
	if first.Is4() {
		v := ipv4ToUint(first)
		for _, b := range s.addrBlocks {
			used = used || v-b.first < b.hosts || b.first-v < n // overlap, wrap-safe
		}
		if n > 1 {
			for a := range s.byAddr {
				used = used || a.Is4() && ipv4ToUint(a)-v < n
			}
		}
	}
	if used {
		return fmt.Errorf("%w: [%v +%d)", ErrAddrInUse, first, n)
	}
	return nil
}

// addHostBlock makes slab's zero-valued Nodes the leaf hosts owning the
// consecutive IPv4 addresses [first, first+len(slab)), each written once,
// on shard sh, and registers them as one block of addresses instead of
// a map entry per host. The hosts carry no router-side state and are
// anonymous (Name "", not resolvable via Simulator.Node): the caller
// reads them from the node list, grown beforehand so these appends do
// not regrow it. BuildFanout is the caller; with its link store a host
// costs about 200 bytes (TestHostFootprint): 200 MB for a million.
func (s *Simulator) addHostBlock(first netip.Addr, slab []Node, sh *shard) error {
	n, v := uint32(len(slab)), ipv4ToUint(first)
	if err := s.checkFree(first, n); err != nil {
		return err
	}
	id := len(s.nodeList)
	for i := range slab {
		slab[i] = Node{sh: sh, id: id + i, addr: uintToIPv4(v + uint32(i))}
		s.nodeList = append(s.nodeList, &slab[i])
	}
	s.addrBlocks = append(s.addrBlocks, addrBlock{first: v, hosts: n})
	s.planDirty = true
	return nil
}

// AddAnycast registers addr as an anycast address served by the given
// nodes. Routing resolves it to the nearest member. A member holds addr
// behind its own addresses: the group is the nodes that hold it.
func (s *Simulator) AddAnycast(addr netip.Addr, members ...*Node) {
	for _, m := range members {
		if !slices.Contains(m.anycastAddrs(), addr) {
			r := m.router()
			r.addrs = append(r.addrs, addr)
			r.anycast++
		}
	}
}

// ownAddrs is the node's own addresses; anycastAddrs the anycast groups
// it serves, which AddAnycast appended behind them.
func (n *Node) ownAddrs() []netip.Addr {
	all := n.addrList()
	return all[:len(all)-len(n.anycastAddrs())]
}

func (n *Node) anycastAddrs() []netip.Addr {
	if n.rt == nil {
		return nil
	}
	return n.rt.addrs[len(n.rt.addrs)-int(n.rt.anycast):]
}

// Addr returns the node's first address (its canonical identity), or the
// zero Addr for address-less transit routers.
func (n *Node) Addr() netip.Addr {
	if own := n.ownAddrs(); len(own) > 0 {
		return own[0]
	}
	return netip.Addr{}
}

// AddAddr assigns an extra address to the node at runtime (used by the
// neutralizer's dynamic-address QoS remedy). Routes must be reinstalled
// by the caller (Simulator.BuildRoutes) for remote reachability, or the
// address can be covered by an existing prefix route.
func (n *Node) AddAddr(a netip.Addr) error {
	if err := n.sh.sim.checkFree(a, 1); err != nil {
		return err
	}
	n.sh.sim.byAddr[a] = n
	r := n.router()
	r.addrs = slices.Insert(r.addrs, len(n.ownAddrs()), a)
	return nil
}

// RemoveAddr releases an address previously added with AddAddr.
func (n *Node) RemoveAddr(a netip.Addr) {
	if n.sh.sim.byAddr[a] == n {
		delete(n.sh.sim.byAddr, a)
	}
	if i := slices.Index(n.ownAddrs(), a); i >= 0 {
		r := n.router()
		r.addrs = slices.Delete(r.addrs, i, i+1)
	}
}

// SetHandler installs the local-delivery handler.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// AddTransitHook installs a hook run on every packet the node receives.
func (n *Node) AddTransitHook(h TransitHook) {
	r := n.router()
	r.hooks = append(r.hooks, h)
}

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
	if proc <= 0 || len(p.Pkt) < wire.IPv4HeaderLen {
		return n.SendPacket(p) // which refuses a malformed packet
	}
	n.sh.stampJourney(p)
	n.sh.emit(TraceSend, n, p)
	p.attrProc += int64(proc)
	n.sh.schedule(n.sh.now+int64(proc), nodeEvent(evProc, n, p))
	return nil
}

// dispatch delivers locally or forwards toward the destination. origin
// marks packets sent by this node itself (no transit hooks, no TTL work).
// dispatch owns p: every exit path releases it or hands it on.
func (n *Node) dispatch(p *Packet, origin bool) error {
	if len(p.Pkt) < wire.IPv4HeaderLen {
		p.Release()
		return ErrMalformedIPv4
	}
	if origin || n.rt == nil || len(n.rt.hooks) == 0 {
		return n.route(p, origin)
	}
	// Transit/ingress policy.
	var delay time.Duration
	var cause PolicyCause
	var class uint8
	now := n.Now()
	for _, h := range n.rt.hooks {
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
		n.sh.schedule(n.sh.now+int64(delay), nodeEvent(evDelayed, n, p))
		return nil
	}
	return n.route(p, false)
}

// route delivers p locally or forwards it toward its destination, read
// once, as a word, after any transit hooks (they may write it). origin
// marks a packet this node originated: no TTL work, not a forward. A node
// serves its own addresses and the anycast groups it is a member of, all
// in addrList: a hop decides from its own fields.
func (n *Node) route(p *Packet, origin bool) error {
	dst := binary.BigEndian.Uint32(p.Pkt[16:20])
	for _, a := range n.addrList() {
		if a.Is4() && ipv4ToUint(a) == dst {
			n.deliver(p)
			return nil
		}
	}
	link := n.lookupRoute(dst)
	if link == nil {
		n.sh.emit(TraceDropNoRoute, n, p)
		p.Release()
		return ErrNoRoute
	}
	if !origin {
		if alive, _ := wire.DecrementTTL(p.Pkt); !alive { // dispatch checked the length
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
