package simnet

import (
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

// ephemeralBase is where per-node automatic port allocation starts.
const ephemeralBase = 40000

// defaultQueueCap bounds a conn's inbound datagram queue; arrivals
// beyond it are dropped, like a full socket buffer.
const defaultQueueCap = 1024

// portSink receives demultiplexed datagrams for one local UDP port.
// deliver runs in driver context with Net.mu held.
type portSink interface {
	deliverDgram(src netip.AddrPort, payload []byte)
}

// nodeBind owns a netem.Node's delivery handler and demultiplexes
// arriving packets: UDP datagrams go to the portSink bound to their
// destination port, shim packets to the attached endhost, and anything
// else to the fallback handler the node had before binding.
type nodeBind struct {
	node     *netem.Node
	ports    map[uint16]portSink
	shim     netem.Handler // ProtoShim packets (endhost.HandlePacket)
	fallback netem.Handler // whatever handler the node had before
	nextPort uint16
}

// bind attaches (once) to node's delivery handler.
func (n *Net) bind(node *netem.Node) *nodeBind {
	if b, ok := n.binds[node]; ok {
		return b
	}
	b := &nodeBind{node: node, ports: make(map[uint16]portSink), nextPort: ephemeralBase}
	n.binds[node] = b
	node.SetHandler(b.handle)
	return b
}

// handle is the node's netem delivery handler: driver context, mu held
// (the simulator only advances inside Net.Run, which holds mu).
func (b *nodeBind) handle(now time.Time, pkt []byte) {
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		return
	}
	switch ip.Protocol {
	case wire.ProtoUDP:
		var udp wire.UDP
		if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
			return
		}
		if sink, ok := b.ports[udp.DstPort]; ok {
			sink.deliverDgram(netip.AddrPortFrom(ip.Src, udp.SrcPort), udp.Payload())
			return
		}
	case wire.ProtoShim:
		if b.shim != nil {
			b.shim(now, pkt)
			return
		}
	}
	if b.fallback != nil {
		b.fallback(now, pkt)
	}
}

// allocPort claims a specific port, or the next free ephemeral port if
// port is zero.
func (b *nodeBind) allocPort(port uint16, sink portSink) (uint16, error) {
	if port != 0 {
		if _, taken := b.ports[port]; taken {
			return 0, fmt.Errorf("simnet: port %d already bound on %s", port, b.node.Addr())
		}
		b.ports[port] = sink
		return port, nil
	}
	for i := 0; i < 1<<16; i++ {
		p := b.nextPort
		b.nextPort++
		if b.nextPort == 0 {
			b.nextPort = ephemeralBase
		}
		if _, taken := b.ports[p]; !taken && p != 0 {
			b.ports[p] = sink
			return p, nil
		}
	}
	return 0, fmt.Errorf("simnet: no free ports on %s", b.node.Addr())
}

// sendUDP serializes and injects one datagram from this node. Driver or
// workload context, mu held.
func (b *nodeBind) sendUDP(sport uint16, dst netip.AddrPort, payload []byte) error {
	pkt, err := wire.AppendUDP(nil, b.node.Addr(), dst.Addr(), sport, dst.Port(), payload)
	if err != nil {
		return err
	}
	return b.node.Send(pkt)
}

// dgram is one queued inbound datagram.
type dgram struct {
	src  netip.AddrPort
	data []byte
}

// UDPConn is a datagram endpoint on a simulated node, with the methods
// of *net.UDPConn in netip.AddrPort terms plus the batch pair of
// internal/tunnel's Conn. Reads block the calling goroutine until a
// datagram arrives in virtual time, the deadline (also virtual time)
// expires, or the conn is closed. Writes never block: the datagram is
// injected into the simulator at the current virtual instant.
type UDPConn struct {
	waitq  // blocked readers; its n is the conn's Net
	b      *nodeBind
	port   uint16
	queue  []dgram
	closed bool
}

// ListenUDP binds a datagram conn to port on node (0 picks an ephemeral
// port). The conn receives every UDP datagram addressed to any of the
// node's addresses at that port.
func (n *Net) ListenUDP(node *netem.Node, port uint16) (*UDPConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.bind(node)
	c := &UDPConn{waitq: waitq{n: n}, b: b}
	p, err := b.allocPort(port, c)
	if err != nil {
		return nil, err
	}
	c.port = p
	return c, nil
}

// deliverDgram implements portSink. Driver context, mu held. The wake is
// an event after the arrival instant's others, so a read takes them all.
func (c *UDPConn) deliverDgram(src netip.AddrPort, payload []byte) {
	if c.closed || len(c.queue) >= defaultQueueCap {
		return
	}
	c.queue = append(c.queue, dgram{src: src, data: append([]byte(nil), payload...)})
	c.n.sim.ScheduleAt(c.n.sim.Now(), c.wakeOne)
}

// ReadFromUDPAddrPort is ReadBatch of one datagram, into p.
func (c *UDPConn) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	n, from := []int{0}, []netip.AddrPort{{}}
	_, err := c.ReadBatch([][]byte{p}, n, from)
	return n[0], from[0], err
}

// ReadBatch parks in virtual time until a datagram is queued, then moves
// at most len(bufs) of them, as tunnel.Conn asks.
func (c *UDPConn) ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (k int, err error) {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	w := newWaiter()
	for len(c.queue) == 0 {
		if c.closed {
			return 0, net.ErrClosed
		}
		if c.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		c.park(w)
	}
	k = min(len(c.queue), len(bufs))
	for i, d := range c.queue[:k] {
		n[i], from[i] = copy(bufs[i], d.data), d.src
	}
	c.queue = c.queue[k:]
	return k, nil
}

// WriteToUDPAddrPort sends p to dst from the conn's port.
func (c *UDPConn) WriteToUDPAddrPort(p []byte, dst netip.AddrPort) (int, error) {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if err := c.b.sendUDP(c.port, dst, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBatch sends pkts[i] to to[i] in order, as tunnel.Conn asks.
func (c *UDPConn) WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error) {
	for i, p := range pkts {
		_, errs[i] = c.WriteToUDPAddrPort(p, to[i])
	}
}

// Close releases the port and wakes all blocked readers with
// net.ErrClosed. Closing twice is a no-op.
func (c *UDPConn) Close() error {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	delete(c.b.ports, c.port)
	c.wakeAll()
	return nil
}
