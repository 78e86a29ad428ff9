package dnssim

import (
	"crypto/rand"
	"fmt"
	"io"
	"net/netip"

	"netneutral/internal/e2e"
	"netneutral/internal/simnet"
)

// ConnClient is a blocking resolver client over a simnet.UDPConn riding
// the emulated fabric. A ConnClient is used from a goroutine the simnet
// driver manages: each lookup writes one query datagram and blocks in
// ReadFromUDPAddrPort until a datagram from the resolver's address
// arrives. It speaks exactly the wire protocol Resolver serves.
//
// A ConnClient is not safe for concurrent lookups: answers are matched
// to queries by the conn's local port, so interleaved lookups on one
// conn would steal each other's datagrams. Use one ConnClient (and one
// conn) per querying goroutine.
type ConnClient struct {
	conn     *simnet.UDPConn
	resolver netip.AddrPort
	rng      io.Reader
	buf      []byte
}

// NewConnClient wraps conn for blocking lookups against the resolver at
// the given address (usually port 53). rng defaults to crypto/rand;
// simulations pass a seeded reader for reproducible query encryption.
func NewConnClient(conn *simnet.UDPConn, resolver netip.AddrPort, rng io.Reader) *ConnClient {
	if rng == nil {
		rng = rand.Reader
	}
	return &ConnClient{conn: conn, resolver: resolver, rng: rng, buf: make([]byte, 64<<10)}
}

// Lookup issues a plaintext query (the discriminable kind) and blocks
// until the answer arrives. Deadlines set on the underlying conn bound
// the wait.
func (c *ConnClient) Lookup(name string) (Record, error) {
	q, err := encodeQueryPlain(name)
	if err != nil {
		return Record{}, err
	}
	body, err := c.exchange(q)
	if err != nil {
		return Record{}, err
	}
	return decodeAnswerPlain(body)
}

// LookupEncrypted issues an encrypted query to a resolver whose public
// key the caller was configured with and blocks until the sealed answer
// arrives.
func (c *ConnClient) LookupEncrypted(resolverKey e2e.PublicKey, name string) (Record, error) {
	q, sess, err := encodeQueryEncrypted(c.rng, resolverKey, name)
	if err != nil {
		return Record{}, err
	}
	body, err := c.exchange(q)
	if err != nil {
		return Record{}, err
	}
	return decodeAnswerEncrypted(sess, body)
}

// exchange sends one query payload and returns the first datagram that
// comes back from the resolver's address, skipping strays.
func (c *ConnClient) exchange(q []byte) ([]byte, error) {
	if _, err := c.conn.WriteToUDPAddrPort(q, c.resolver); err != nil {
		return nil, fmt.Errorf("dnssim: sending query: %w", err)
	}
	for {
		n, from, err := c.conn.ReadFromUDPAddrPort(c.buf)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrQueryFailed, err)
		}
		if from == c.resolver {
			return c.buf[:n], nil
		}
	}
}
