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
	parked() int
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

func (b *nodeBind) parkedWaiters() int {
	total := 0
	for _, s := range b.ports {
		total += s.parked()
	}
	return total
}

// sendUDP serializes and injects one datagram from this node. Driver or
// workload context, mu held.
func (b *nodeBind) sendUDP(sport uint16, dst netip.AddrPort, payload []byte) error {
	src := b.node.Addr()
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst.Addr()},
		&wire.UDP{SrcPort: sport, DstPort: dst.Port(), PseudoSrc: src, PseudoDst: dst.Addr()},
	)
	if err != nil {
		return err
	}
	return b.node.Send(buf.Bytes())
}

// dgram is one queued inbound datagram.
type dgram struct {
	src  netip.AddrPort
	data []byte
}

// UDPConn is a datagram endpoint on a simulated node. It implements
// net.PacketConn always, and net.Conn once connected (created by DialUDP
// or given a remote). Reads block the calling goroutine until a datagram
// arrives in virtual time, the deadline (also virtual time) expires, or
// the conn is closed. Writes never block: the datagram is injected into
// the simulator at the current virtual instant.
type UDPConn struct {
	waitq  // blocked readers; its n is the conn's Net
	b      *nodeBind
	port   uint16
	remote netip.AddrPort // zero unless connected
	queue  []dgram
	closed bool
	qcap   int
}

// ListenUDP binds a datagram conn to port on node (0 picks an ephemeral
// port). The conn receives every UDP datagram addressed to any of the
// node's addresses at that port.
func (n *Net) ListenUDP(node *netem.Node, port uint16) (*UDPConn, error) {
	n.lock()
	defer n.mu.Unlock()
	b := n.bind(node)
	c := &UDPConn{waitq: waitq{n: n}, b: b, qcap: defaultQueueCap}
	p, err := b.allocPort(port, c)
	if err != nil {
		return nil, err
	}
	c.port = p
	return c, nil
}

// DialUDP binds an ephemeral port on node connected to remote: Read and
// Write use remote, and datagrams from other sources are discarded.
func (n *Net) DialUDP(node *netem.Node, remote netip.AddrPort) (*UDPConn, error) {
	c, err := n.ListenUDP(node, 0)
	if err != nil {
		return nil, err
	}
	c.remote = remote
	return c, nil
}

// deliverDgram implements portSink. Driver context, mu held.
func (c *UDPConn) deliverDgram(src netip.AddrPort, payload []byte) {
	if c.closed {
		return
	}
	if c.remote.IsValid() && src != c.remote {
		return
	}
	if len(c.queue) >= c.qcap {
		return
	}
	c.queue = append(c.queue, dgram{src: src, data: append([]byte(nil), payload...)})
	c.wakeOne()
}

// ReadFrom implements net.PacketConn. It blocks in virtual time.
func (c *UDPConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.n.lock()
	defer c.n.mu.Unlock()
	w := newWaiter()
	for {
		if len(c.queue) > 0 {
			d := c.queue[0]
			c.queue = c.queue[1:]
			m := copy(p, d.data)
			return m, net.UDPAddrFromAddrPort(d.src), nil
		}
		if c.closed {
			return 0, nil, net.ErrClosed
		}
		if c.expired() {
			return 0, nil, os.ErrDeadlineExceeded
		}
		c.park(w)
	}
}

// Read implements net.Conn; the conn must be connected (DialUDP).
func (c *UDPConn) Read(p []byte) (int, error) {
	if !c.remote.IsValid() {
		return 0, fmt.Errorf("simnet: Read on unconnected UDPConn")
	}
	m, _, err := c.ReadFrom(p)
	return m, err
}

// WriteTo implements net.PacketConn. addr must be a *net.UDPAddr (or
// net.Addr whose String parses as one).
func (c *UDPConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	dst, err := toAddrPort(addr)
	if err != nil {
		return 0, err
	}
	c.n.lock()
	defer c.n.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if err := c.b.sendUDP(c.port, dst, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Write implements net.Conn; the conn must be connected.
func (c *UDPConn) Write(p []byte) (int, error) {
	if !c.remote.IsValid() {
		return 0, fmt.Errorf("simnet: Write on unconnected UDPConn")
	}
	return c.WriteTo(p, net.UDPAddrFromAddrPort(c.remote))
}

// Close releases the port and wakes all blocked readers with
// net.ErrClosed. Closing twice is a no-op.
func (c *UDPConn) Close() error {
	c.n.lock()
	defer c.n.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	delete(c.b.ports, c.port)
	c.wakeAll()
	return nil
}

// LocalAddr implements net.PacketConn and net.Conn.
func (c *UDPConn) LocalAddr() net.Addr {
	return net.UDPAddrFromAddrPort(netip.AddrPortFrom(c.b.node.Addr(), c.port))
}

// RemoteAddr implements net.Conn; nil when unconnected.
func (c *UDPConn) RemoteAddr() net.Addr {
	if !c.remote.IsValid() {
		return nil
	}
	return net.UDPAddrFromAddrPort(c.remote)
}

// toAddrPort converts a net.Addr to netip.AddrPort.
func toAddrPort(a net.Addr) (netip.AddrPort, error) {
	switch v := a.(type) {
	case *net.UDPAddr:
		ap := v.AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
	case *net.TCPAddr:
		ap := v.AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
	}
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("simnet: unusable address %v: %w", a, err)
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}
