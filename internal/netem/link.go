package netem

import (
	"math"
	"time"
)

// Queue is a link egress queue discipline. FIFO is the default; a
// DSCP-aware one reads Pkt[1]>>2. Implementations are used from
// the single-threaded event loop and need no locking. Queues hold pooled
// packets: a queued *Packet carries one reference, which passes back to
// the link when Dequeue returns it (a queue that drops a packet it
// accepted must Release it).
type Queue interface {
	// Enqueue accepts a packet or reports it dropped.
	Enqueue(p *Packet) bool
	// Dequeue returns the next packet to transmit, or nil if empty.
	Dequeue() *Packet
	// Len reports queued packets.
	Len() int
}

// FIFOQueue is a bounded tail-drop FIFO backed by a ring buffer, so
// steady-state enqueue/dequeue never allocates. The ring itself is
// allocated on first enqueue.
type FIFOQueue struct {
	q    []*Packet
	head int
	n    int
	cap  int
}

// NewFIFOQueue creates a FIFO with the given capacity (packets).
func NewFIFOQueue(capacity int) *FIFOQueue {
	if capacity <= 0 {
		capacity = 64
	}
	return &FIFOQueue{cap: capacity}
}

// Enqueue implements Queue.
func (f *FIFOQueue) Enqueue(p *Packet) bool {
	if f.n >= f.cap {
		return false
	}
	if f.q == nil {
		f.q = make([]*Packet, f.cap)
	}
	// head and n are both below cap, so one subtraction wraps the index;
	// a modulo here is a hardware divide on every packet of every hop.
	i := f.head + f.n
	if i >= f.cap {
		i -= f.cap
	}
	f.q[i] = p
	f.n++
	return true
}

// Dequeue implements Queue.
func (f *FIFOQueue) Dequeue() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == f.cap {
		f.head = 0
	}
	f.n--
	return p
}

// Len implements Queue.
func (f *FIFOQueue) Len() int { return f.n }

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// Delay is the propagation delay.
	Delay time.Duration
	// RateBps is the transmission rate in bits per second; zero means
	// infinite (no serialization delay).
	RateBps float64
	// QueueLen bounds the egress queue in packets (default 64).
	QueueLen int
}

// cost is the link's routing metric: Delay in microseconds, min 1.
func (c LinkConfig) cost() float64 {
	if c.Delay > 0 {
		return float64(c.Delay.Microseconds())
	}
	return 1
}

// Link is a bidirectional connection between two nodes, with independent
// egress state per direction.
type Link struct {
	a, b *Node
	dirs [2]*linkDir // [0] a->b, [1] b->a
}

// linkDir is one direction's egress state. It is owned by the shard of
// its from node — serialization and queueing happen there — and only its
// arrival events cross into the to node's shard.
type linkDir struct {
	from  *Node
	to    *Node
	cfg   LinkConfig
	queue Queue // nil until SetQueue, or until a packet finds the line busy
	busy  bool
	// fluidBps is the aggregate background load a FluidFlow currently
	// offers on this direction (bits/s); startTransmission serializes
	// packets at the residual rate, so policing and queueing see the
	// load without per-packet events. See fluid.go.
	fluidBps float64
}

// Connect joins two nodes with symmetric link characteristics.
func (s *Simulator) Connect(a, b *Node, cfg LinkConfig) *Link {
	return s.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym joins two nodes with per-direction characteristics
// (ab for a→b, ba for b→a).
func (s *Simulator) ConnectAsym(a, b *Node, ab, ba LinkConfig) *Link {
	var l Link
	var d [2]linkDir
	return s.connectInto(&l, &d[0], &d[1], a, b, ab, ba)
}

// connectInto wires preallocated link storage between a and b — the slab
// path topology builders use to stamp out a metro's host links as three
// arrays instead of three heap objects per host. The storage must be
// zero-valued and must outlive the simulator.
func (s *Simulator) connectInto(l *Link, d0, d1 *linkDir, a, b *Node, ab, ba LinkConfig) *Link {
	*l = Link{a: a, b: b}
	*d0 = linkDir{from: a, to: b, cfg: ab}
	*d1 = linkDir{from: b, to: a, cfg: ba}
	l.dirs[0], l.dirs[1] = d0, d1
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	s.planDirty = true
	return l
}

// Peer returns the node on the other end of the link from n.
func (l *Link) Peer(n *Node) *Node {
	if n == l.a {
		return l.b
	}
	return l.a
}

// SetQueue replaces the egress queue discipline for the direction
// originating at from (e.g. a DiffServ priority queue at an ISP edge).
// Packets waiting in the old queue are transferred to the new one in
// order; any the new discipline refuses are dropped (and released).
func (l *Link) SetQueue(from *Node, q Queue) error {
	d := l.dir(from)
	if d == nil {
		return ErrNotConnected
	}
	old := d.queue
	if old == q {
		return nil
	}
	d.queue = q
	for old != nil {
		p := old.Dequeue()
		if p == nil {
			break
		}
		if !q.Enqueue(p) {
			d.from.sh.mLinkQDrop.Inc()
			p.cause = CauseQueueFull
			d.from.sh.emit(TraceDropQueue, from, p)
			p.Release()
		}
	}
	return nil
}

func (l *Link) dir(from *Node) *linkDir {
	if from == l.a {
		return l.dirs[0]
	}
	if from == l.b {
		return l.dirs[1]
	}
	return nil
}

// transmit sends p from node from across the link, taking ownership of
// the packet's reference. An idle line with the default discipline
// serializes the packet in hand — a FIFO would hand it straight back — so
// the default FIFO and its ring exist only once a packet has found the
// line busy. A Queue installed with SetQueue sees every packet.
func (l *Link) transmit(from *Node, p *Packet) {
	d := l.dir(from)
	if d == nil {
		p.Release()
		return
	}
	sh := d.from.sh
	p.Size = len(p.Pkt)
	p.Arrived = sh.now
	if d.queue == nil {
		if !d.busy {
			sh.mStartDirect.Inc()
			d.startTransmission(p)
			return
		}
		d.queue = NewFIFOQueue(d.cfg.QueueLen)
	}
	if !d.queue.Enqueue(p) {
		sh.mLinkQDrop.Inc()
		p.cause = CauseQueueFull
		sh.emit(TraceDropQueue, from, p)
		p.Release()
		return
	}
	if !d.busy {
		d.startNext()
	}
}

// startNext starts serializing the next waiting packet, or marks the
// line idle when none waits.
func (d *linkDir) startNext() {
	var p *Packet
	if d.queue != nil {
		p = d.queue.Dequeue()
	}
	if p == nil {
		d.busy = false
		return
	}
	d.from.sh.mStartQueued.Inc()
	d.startTransmission(p)
}

// startTransmission occupies the line with p and schedules its departure
// event (a typed event: no closure, no allocation).
func (d *linkDir) startTransmission(p *Packet) {
	d.busy = true
	serialize := time.Duration(0)
	if rate := d.cfg.RateBps; rate > 0 {
		if d.fluidBps > 0 {
			// Fluid background load consumes capacity: packets serialize at
			// the residual rate, floored so a saturating fluid can slow the
			// measured path by at most 100x rather than stall it.
			if rate -= d.fluidBps; rate < d.cfg.RateBps*fluidResidualFloor {
				rate = d.cfg.RateBps * fluidResidualFloor
			}
		}
		sec := float64(p.Size*8) / rate
		serialize = time.Duration(math.Round(sec * float64(time.Second)))
	}
	sh := d.from.sh
	p.attrQueue += sh.now - p.Arrived
	p.attrSer += int64(serialize)
	sh.schedule(sh.now+int64(serialize), event{kind: evDepart, dir: d, pkt: p})
}

// depart completes a serialization: the line is free for the next packet
// and p arrives at the far end after propagation. An arrival on another
// shard is staged in the outbox — the propagation delay of every
// cross-shard link is at least the engine's lookahead, which is what
// makes deferring it to the epoch barrier safe.
func (d *linkDir) depart(p *Packet) {
	d.from.sh.mLinkTx.Inc()
	src, dst := d.from.sh, d.to.sh
	p.attrProp += int64(d.cfg.Delay)
	at := src.now + int64(d.cfg.Delay)
	ev := event{kind: evArrive, node: d.to, pkt: p}
	if dst == src {
		src.schedule(at, ev)
	} else {
		src.sendRemote(dst, at, ev)
	}
	d.startNext()
}
