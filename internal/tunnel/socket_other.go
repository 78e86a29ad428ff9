//go:build !(linux && (amd64 || arm64))

package tunnel

import (
	"net"
	"net/netip"
)

// Socket returns the driver that serves c where recvmmsg is not wired
// up: one read per ReadBatch, waiting in Go's netpoller, into the first
// slot, and one write per datagram.
func Socket(c *net.UDPConn) (Conn, error) { return portable{c}, nil }

type portable struct{ *net.UDPConn }

func (p portable) ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (k int, err error) {
	n[0], from[0], err = p.ReadFromUDPAddrPort(bufs[0])
	return 1, err // on an error the loop reads nothing else
}

func (p portable) WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error) {
	for i, pkt := range pkts {
		_, errs[i] = p.WriteToUDPAddrPort(pkt, to[i])
	}
}
