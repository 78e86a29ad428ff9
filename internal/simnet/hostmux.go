package simnet

import (
	"fmt"
	"net/netip"
	"time"

	"netneutral/internal/endhost"
	"netneutral/internal/netem"
)

// HostMux carries simnet streams over an endhost.Host's encrypted
// neutralizer conduits (§3.2 of the paper): frames travel as shim
// payloads through the neutralizer instead of raw UDP datagrams, so a
// real protocol stack (net/http, say) runs end to end over the
// indirection path an ISP cannot selectively throttle.
//
// Streams are keyed by peer address — one stream per remote host at a
// time, matching the endhost package's one-conversation-per-peer model.
type HostMux struct {
	n     *Net
	host  *endhost.Host
	conns map[netip.Addr]*StreamConn
	ln    *StreamListener // nil until Listen
	prev  func(peer netip.Addr, data []byte)
}

// AttachHost binds host's packet handler to node (shim packets route to
// endhost.Host.HandlePacket; UDP keeps flowing to simnet conns) and
// intercepts the host's data callback to feed stream frames into the
// mux. The host's previous OnData callback still receives any data that
// is not stream-framed, so non-stream uses coexist.
func (n *Net) AttachHost(node *netem.Node, host *endhost.Host, prev func(peer netip.Addr, data []byte)) *HostMux {
	n.lock()
	defer n.mu.Unlock()
	b := n.bind(node)
	b.shim = host.HandlePacket
	m := &HostMux{n: n, host: host, conns: make(map[netip.Addr]*StreamConn), prev: prev}
	host.SetOnData(m.onData)
	return m
}

// onData is the endhost data callback: driver context, mu held (the
// endhost only processes packets from the node handler, which the
// simulator invokes under the driver).
func (m *HostMux) onData(peer netip.Addr, data []byte) {
	if c, ok := m.conns[peer]; ok {
		c.handleFrame(data)
		return
	}
	if m.ln != nil {
		m.ln.deliver(netip.AddrPortFrom(peer, 0), data)
		return
	}
	if m.prev != nil {
		m.prev(peer, data)
	}
}

// Listen accepts inbound streams from any peer that has a conversation
// with this host. At most one listener per mux.
func (m *HostMux) Listen() (*StreamListener, error) {
	m.n.lock()
	defer m.n.mu.Unlock()
	if m.ln != nil {
		return nil, fmt.Errorf("simnet: HostMux already listening")
	}
	m.ln = newStreamListener(m.n, netip.AddrPortFrom(m.host.Addr(), 0), func(remote netip.AddrPort, frame []byte) error {
		return m.host.Send(remote.Addr(), frame)
	})
	m.ln.dereg = func() { m.ln = nil }
	return m.ln, nil
}

// Dial opens a stream to peer over the host's established conversation
// (the caller must have completed Setup/Connect first; endhost returns
// ErrNoConversation otherwise).
func (m *HostMux) Dial(peer netip.Addr) (*StreamConn, error) {
	m.n.lock()
	defer m.n.mu.Unlock()
	if _, ok := m.conns[peer]; ok {
		return nil, fmt.Errorf("simnet: stream to %s already open", peer)
	}
	c := newStreamConn(m.n, streamAddr(netip.AddrPortFrom(m.host.Addr(), 0)),
		streamAddr(netip.AddrPortFrom(peer, 0)),
		func(frame []byte) error { return m.host.Send(peer, frame) })
	c.nextSeq = 1
	c.onClose = func() { delete(m.conns, peer) }
	m.conns[peer] = c
	if err := c.send(putFrame(frameSYN, 0, nil)); err != nil {
		delete(m.conns, peer)
		return nil, err
	}
	return c, nil
}

// WaitConduit blocks until the host holds a conduit to neut (possibly
// still provisional — the grant rides the first data exchange), or the
// deadline passes (virtual time).
func (m *HostMux) WaitConduit(neut netip.Addr, deadline time.Time) error {
	ok := false
	m.n.Wait(func() bool {
		if m.host.HasConduit(neut) {
			ok = true
			return true
		}
		return !m.n.sim.Now().Before(deadline)
	})
	if !ok {
		return fmt.Errorf("simnet: conduit to %s not established by %s", neut, deadline.Format(time.RFC3339))
	}
	return nil
}
