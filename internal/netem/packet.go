package netem

import (
	"fmt"

	"netneutral/internal/obs"
)

// Packet is a pooled, refcounted packet buffer. One Packet travels the
// whole emulated path — origination, link queues, transit hooks, local
// delivery — without per-hop copies; when its last reference is released
// it returns to the simulator's pool for reuse.
//
// Ownership rules:
//   - Node.SendPacket and Link queues take ownership (one reference).
//   - TransitHook and Handler callbacks receive a []byte view
//     of the buffer that is valid only for the duration of the call; to
//     keep the bytes longer, copy them (bytes.Clone).
//   - Code that holds a *Packet itself (queue disciplines, generators
//     passing buffers to SendPacket) uses Retain/Release to extend or
//     end its lifetime.
//   - Simulator.SetPoolDebug(true) poisons released buffers so a
//     retained-slice bug reads 0xDD garbage instead of silently aliasing
//     a recycled packet (see TestPacketPoolPoisonsReleasedBuffers).
type Packet struct {
	// Pkt is the serialized IPv4 datagram: a window into the pooled
	// backing buffer. Never append to it or store it past a callback.
	Pkt []byte
	// Size is len(Pkt), kept for queue disciplines.
	Size int
	// Arrived is when the packet entered its current egress queue
	// (virtual time, Unix nanoseconds).
	Arrived int64

	buf  []byte // full-capacity backing array
	refs int32
	pool *packetPool // pool Release pushes to: the shard the packet is on
	home *packetPool // pool that allocated the buffer (owns it at rest)

	// Per-journey delay attribution, accumulated in nanoseconds since the
	// journey's previous trace event; shard.emit records and resets the
	// accumulators, so each hop event carries exactly the components that
	// elapsed since the one before it. journey is the id stamped at
	// SendPacket (a pure function of the originating shard's sequence,
	// never of the worker count).
	attrQueue, attrSer, attrProp, attrPolicy, attrProc int64
	cause                                              PolicyCause
	class                                              uint8
	journey                                            uint64
	// flow caches FlowHash(Pkt), computed at the journey's first trace
	// emission (0 = not yet computed). Flow identity is stable for a
	// packet's whole journey — hooks only read it, and address rewrites
	// go through new packets — so later hops skip the header parse and
	// hash.
	flow uint64
}

// flowID returns the packet's flow hash, computing and caching it on
// first use. Packets too short for an IPv4 header hash to 0 and
// recompute harmlessly.
func (p *Packet) flowID() uint64 {
	if p.flow == 0 {
		p.flow = FlowHash(p.Pkt)
	}
	return p.flow
}

// Retain adds a reference, keeping the buffer alive past the current
// callback. Pair every Retain with a Release.
func (p *Packet) Retain() *Packet {
	if p.pool != nil {
		p.refs++
	}
	return p
}

// Release drops one reference; at zero the buffer returns to the pool.
// Packets not obtained from a pool (zero-value literals in tests and
// queue benchmarks) ignore Release.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	p.refs--
	switch {
	case p.refs > 0:
	case p.refs == 0:
		p.pool.put(p)
	default:
		panic(fmt.Sprintf("netem: Packet released %d times past zero", -p.refs))
	}
}

// packetPool is a freelist of Packets. Each shard owns one: within an
// epoch only the owning shard's goroutine touches it, so no locking is
// needed; buffers are reused most-recently-freed-first for cache
// locality. A packet that crosses a shard boundary is re-homed to the
// destination shard's pool at the epoch barrier (see shard.mergeIncoming),
// so Release always pushes onto the freelist of the shard it runs on.
// Consequence: a cross-shard packet must carry exactly one reference —
// holding a Retain on a packet while it travels to another shard is
// unsupported (the refcount is not atomic).
type packetPool struct {
	owner *shard // the shard whose goroutine uses this pool
	free  []*Packet
	// homebound[s] parks buffers released here that shard s's pool
	// allocated; the home shard reclaims them at the next epoch barrier
	// (one writer — this pool's shard — one reader — the home shard's
	// merge phase — never concurrently).
	homebound [][]*Packet
	debug     bool

	// Registry stripes (netem_pool_* families), owned by this pool's
	// shard; set by simMetrics.attachShard before any checkout.
	allocated *obs.Counter // buffers ever created
	gets      *obs.Counter // checkouts (hits + misses)
}

const poisonByte = 0xDD

// get returns a packet with an n-byte Pkt window, contents undefined.
func (pp *packetPool) get(n int) *Packet {
	pp.gets.Inc()
	var p *Packet
	if k := len(pp.free); k > 0 {
		p = pp.free[k-1]
		pp.free = pp.free[:k-1]
		p.pool = pp // may still point at the shard of its last journey
	} else {
		pp.allocated.Inc()
		p = &Packet{pool: pp, home: pp}
	}
	if cap(p.buf) < n {
		p.buf = make([]byte, n+64) // headroom to absorb jittering sizes
	}
	p.Pkt = p.buf[:n]
	p.Size = n
	p.refs = 1
	p.attrQueue, p.attrSer, p.attrProp, p.attrPolicy, p.attrProc = 0, 0, 0, 0, 0
	p.cause, p.class, p.journey = 0, 0, 0
	p.flow = 0
	return p
}

// put returns a packet to the freelist, poisoning it first in debug mode
// so retained views are caught rather than silently reading recycled
// data. A buffer released away from the pool that allocated it (it
// crossed shards in flight) is parked homebound; the owning shard
// reclaims it at the next epoch barrier, so producer shards keep
// recycling even when every packet dies on a consumer shard.
func (pp *packetPool) put(p *Packet) {
	if pp.debug {
		for i := range p.Pkt {
			p.Pkt[i] = poisonByte
		}
	}
	p.Pkt = nil
	if p.home == pp {
		pp.free = append(pp.free, p)
		return
	}
	h := p.home.owner.id
	for len(pp.homebound) <= h {
		pp.homebound = append(pp.homebound, nil)
	}
	if len(pp.homebound[h]) == 0 {
		pp.owner.spoke = append(pp.owner.spoke, int32(h))
	}
	pp.homebound[h] = append(pp.homebound[h], p)
}

// SetPoolDebug toggles poisoning of released packet buffers on every
// shard pool. Enable it in tests that must prove no hook or handler
// retains a buffer view past its call.
func (s *Simulator) SetPoolDebug(on bool) {
	s.poolDebug = on
	for _, sh := range s.shards {
		sh.pool.debug = on
	}
}

// PoolStats reports how many packet buffers were ever allocated versus
// checked out across all shard pools (a thin read over the
// netem_pool_* registry families); a steady-state run re-checks out the
// same few buffers.
func (s *Simulator) PoolStats() (allocated, gets uint64) {
	return s.met.poolAlloc.Value(), s.met.poolGets.Value()
}
