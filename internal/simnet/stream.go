package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"

	"netneutral/internal/netem"
)

// Stream framing. The emulated fabric is lossless and order-preserving
// for a fixed path (FIFO links, generous queues), so the stream layer is
// a thin shim: framed datagrams with sequence numbers for loss
// *detection*, not recovery. A gap means the path dropped a frame (queue
// overflow or a throttling middlebox) and the conn breaks — which is the
// honest behaviour for experiments measuring discrimination.
const (
	frameSYN  = 1 // opens a stream; consumes seq 0
	frameDATA = 2
	frameFIN  = 3 // clean end of the peer's write side
	frameRST  = 4 // abort

	frameHdrLen = 5 // kind u8 | seq u32 BE
	// StreamMSS is the maximum payload per DATA frame.
	StreamMSS = 1024
)

// ErrStreamBroken reports a sequence gap: the underlying path dropped a
// frame, which the no-retransmit stream layer cannot repair.
var ErrStreamBroken = errors.New("simnet: stream broken (frame lost on path)")

func putFrame(kind byte, seq uint32, payload []byte) []byte {
	f := make([]byte, frameHdrLen+len(payload))
	f[0] = kind
	f[1], f[2], f[3], f[4] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	copy(f[frameHdrLen:], payload)
	return f
}

// StreamConn is an ordered byte stream over the simulated fabric,
// implementing net.Conn. It is transport-agnostic: the send hook injects
// one frame toward the peer (UDP datagram or endhost conduit payload).
type StreamConn struct {
	waitq                           // blocked readers; its n is the conn's Net
	send   func(frame []byte) error // mu held
	local  net.Addr
	remote net.Addr

	rbuf    []byte
	rpos    int
	nextSeq uint32 // next expected inbound seq
	sendSeq uint32 // last sent seq
	eof     bool   // FIN consumed in order
	rerr    error  // terminal receive error (gap, RST)
	closed  bool
	onClose func() // deregisters from the demux; mu held
}

func newStreamConn(n *Net, local, remote net.Addr, send func([]byte) error) *StreamConn {
	return &StreamConn{waitq: waitq{n: n}, local: local, remote: remote, send: send}
}

// handleFrame consumes one inbound frame. Driver context, mu held.
func (c *StreamConn) handleFrame(payload []byte) {
	if c.closed || c.rerr != nil || len(payload) < frameHdrLen {
		return
	}
	kind := payload[0]
	seq := uint32(payload[1])<<24 | uint32(payload[2])<<16 | uint32(payload[3])<<8 | uint32(payload[4])
	body := payload[frameHdrLen:]
	switch kind {
	case frameSYN:
		// Duplicate SYN on an open conn: ignore.
	case frameDATA:
		if seq != c.nextSeq {
			c.fail(ErrStreamBroken)
			return
		}
		c.nextSeq++
		c.rbuf = append(c.rbuf, body...)
		c.wakeOne()
	case frameFIN:
		if seq != c.nextSeq {
			c.fail(ErrStreamBroken)
			return
		}
		c.nextSeq++
		c.eof = true
		c.wakeAll()
	case frameRST:
		c.fail(fmt.Errorf("simnet: stream reset by peer"))
	}
}

func (c *StreamConn) fail(err error) {
	c.rerr = err
	c.wakeAll()
}

// Read implements net.Conn, blocking in virtual time. Buffered bytes are
// returned ahead of EOF or a terminal error.
func (c *StreamConn) Read(p []byte) (int, error) {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	w := newWaiter()
	for {
		if c.rpos < len(c.rbuf) {
			m := copy(p, c.rbuf[c.rpos:])
			c.rpos += m
			if c.rpos == len(c.rbuf) {
				c.rbuf = c.rbuf[:0]
				c.rpos = 0
			}
			return m, nil
		}
		if c.rerr != nil {
			return 0, c.rerr
		}
		if c.eof {
			return 0, io.EOF
		}
		if c.closed {
			return 0, net.ErrClosed
		}
		if c.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		c.park(w)
	}
}

// Write implements net.Conn. Writes never block: frames are injected at
// the current virtual instant (the fabric's queues model backpressure).
func (c *StreamConn) Write(p []byte) (int, error) {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	written := 0
	for written < len(p) {
		chunk := p[written:min(written+StreamMSS, len(p))]
		c.sendSeq++
		if err := c.send(putFrame(frameDATA, c.sendSeq, chunk)); err != nil {
			return written, err
		}
		written += len(chunk)
	}
	return written, nil
}

// Close implements net.Conn: a FIN is sent (peer reads EOF after
// consuming buffered data), local blocked readers wake with
// net.ErrClosed, and the conn deregisters from its demux.
func (c *StreamConn) Close() error {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.rerr == nil {
		c.sendSeq++
		// Best-effort: the conn is closing regardless of send failure.
		_ = c.send(putFrame(frameFIN, c.sendSeq, nil))
	}
	c.wakeAll()
	if c.onClose != nil {
		c.onClose()
	}
	return nil
}

// LocalAddr implements net.Conn.
func (c *StreamConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *StreamConn) RemoteAddr() net.Addr { return c.remote }

// StreamListener accepts inbound streams, implementing net.Listener. One
// listener serves one local endpoint; a SYN from an unknown remote
// creates a conn and queues it for Accept.
type StreamListener struct {
	n       *Net
	ap      netip.AddrPort
	sendTo  func(remote netip.AddrPort, frame []byte) error // mu held
	conns   map[netip.AddrPort]*StreamConn
	backlog []*StreamConn
	accs    waitq
	closed  bool
	dereg   func() // mu held
}

const listenBacklog = 64

func newStreamListener(n *Net, ap netip.AddrPort, sendTo func(netip.AddrPort, []byte) error) *StreamListener {
	return &StreamListener{n: n, ap: ap, sendTo: sendTo, conns: make(map[netip.AddrPort]*StreamConn), accs: waitq{n: n}}
}

// deliver demultiplexes one inbound frame-carrying datagram. Driver
// context, mu held.
func (l *StreamListener) deliver(src netip.AddrPort, payload []byte) {
	if c, ok := l.conns[src]; ok {
		c.handleFrame(payload)
		return
	}
	if l.closed || len(payload) < frameHdrLen || payload[0] != frameSYN {
		return
	}
	if len(l.backlog) >= listenBacklog {
		return // drop the connection attempt
	}
	c := newStreamConn(l.n, streamAddr(l.ap), streamAddr(src), func(frame []byte) error {
		return l.sendTo(src, frame)
	})
	c.nextSeq = 1 // SYN consumed seq 0
	c.onClose = func() { delete(l.conns, src) }
	l.conns[src] = c
	l.backlog = append(l.backlog, c)
	l.accs.wakeOne()
}

// deliverDgram implements portSink for UDP-backed listeners.
func (l *StreamListener) deliverDgram(src netip.AddrPort, payload []byte) {
	l.deliver(src, payload)
}

// Accept implements net.Listener, blocking in virtual time.
func (l *StreamListener) Accept() (net.Conn, error) {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	w := newWaiter()
	for {
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			return c, nil
		}
		if l.closed {
			return nil, net.ErrClosed
		}
		l.accs.park(w)
	}
}

// Close implements net.Listener: pending Accepts return net.ErrClosed.
// Established conns are unaffected; close them separately.
func (l *StreamListener) Close() error {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.accs.wakeAll()
	if l.dereg != nil {
		l.dereg()
	}
	return nil
}

// Addr implements net.Listener.
func (l *StreamListener) Addr() net.Addr { return streamAddr(l.ap) }

// ListenStream binds a stream listener to a UDP port on node (0 picks an
// ephemeral port). The returned listener is a net.Listener whose conns
// carry the stream framing inside UDP datagrams across the fabric.
func (n *Net) ListenStream(node *netem.Node, port uint16) (*StreamListener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.bind(node)
	var l *StreamListener
	l = newStreamListener(n, netip.AddrPort{}, func(remote netip.AddrPort, frame []byte) error {
		return b.sendUDP(l.ap.Port(), remote, frame)
	})
	p, err := b.allocPort(port, l)
	if err != nil {
		return nil, err
	}
	l.ap = netip.AddrPortFrom(node.Addr(), p)
	l.dereg = func() { delete(b.ports, p) }
	return l, nil
}

// dialSink filters a dialed stream's inbound datagrams to its peer.
type dialSink struct {
	c      *StreamConn
	remote netip.AddrPort
}

func (d *dialSink) deliverDgram(src netip.AddrPort, payload []byte) {
	if src == d.remote {
		d.c.handleFrame(payload)
	}
}

// DialStream opens a stream from node to a StreamListener at remote. The
// SYN is injected immediately; there is no handshake round-trip (the
// fabric is lossless), so the conn is usable at once.
func (n *Net) DialStream(node *netem.Node, remote netip.AddrPort) (*StreamConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.bind(node)
	var c *StreamConn
	var lport uint16
	c = newStreamConn(n, nil, streamAddr(remote), func(frame []byte) error {
		return b.sendUDP(lport, remote, frame)
	})
	p, err := b.allocPort(0, &dialSink{c: c, remote: remote})
	if err != nil {
		return nil, err
	}
	lport = p
	c.local = streamAddr(netip.AddrPortFrom(node.Addr(), p))
	c.onClose = func() { delete(b.ports, p) }
	c.nextSeq = 1 // peer's SYN-less replies start at 1
	if err := c.send(putFrame(frameSYN, 0, nil)); err != nil {
		delete(b.ports, p)
		return nil, err
	}
	return c, nil
}

// streamAddr renders an endpoint as a net.TCPAddr so net/http treats the
// conns as ordinary stream sockets.
func streamAddr(ap netip.AddrPort) net.Addr {
	return net.TCPAddrFromAddrPort(ap)
}
