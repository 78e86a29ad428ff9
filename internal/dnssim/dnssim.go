// Package dnssim simulates the DNS bootstrap of §3.1: a destination's
// records carry its address, its neutralizers' anycast addresses, and its
// public key; sources fetch them before connecting.
//
// Because a discriminatory ISP can eavesdrop on and selectively delay
// plaintext queries ("AT&T may delay queries for www.google.com"), the
// design requires queries to be encrypted and sent to resolvers outside
// the discriminatory ISP's control. Both modes are implemented so the A7
// experiment can contrast them: plaintext queries expose the queried name
// on the wire; encrypted queries expose only the resolver's address.
//
// The wire protocol is deliberately minimal (this is a bootstrap-
// semantics model, not an RFC 1035 implementation): queries and responses
// ride UDP port 53 over the netem fabric, answered by a Resolver on a
// node and asked by a ConnClient over a datagram conn.
package dnssim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"netneutral/internal/e2e"
	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

// Port is the well-known DNS port.
const Port = 53

// Errors returned by this package.
var (
	ErrNoSuchName  = errors.New("dnssim: no such name")
	ErrBadMessage  = errors.New("dnssim: malformed message")
	ErrQueryFailed = errors.New("dnssim: query failed")
	ErrBadRecord   = errors.New("dnssim: record not encodable")
)

// Record is the bootstrap information a destination publishes (§3.1):
// its IP address, the anycast addresses of its neutralizer services (one
// per provider for multi-homed sites, §3.5), and its public key.
type Record struct {
	Name         string
	Addr         netip.Addr
	Neutralizers []netip.Addr
	PublicKey    e2e.PublicKey
}

// recordAddr4 validates that a is encodable as the wire's 4-byte
// address field: an IPv4 (or 4-in-6 mapped) address.
func recordAddr4(a netip.Addr) ([4]byte, error) {
	if !a.Is4() && !a.Is4In6() {
		return [4]byte{}, fmt.Errorf("%w: address %v is not IPv4", ErrBadRecord, a)
	}
	return a.As4(), nil
}

// Marshal encodes a record. Every variable-length field is validated
// against its length prefix before encoding: a name longer than 65535
// bytes would silently truncate the u16 prefix, more than 255
// neutralizers would wrap the count byte, and a zero or IPv6 address has
// no 4-byte wire form — each returns an error wrapping ErrBadRecord
// instead of emitting a corrupt record.
func (r Record) Marshal() ([]byte, error) {
	name := []byte(r.Name)
	if len(name) > 0xFFFF {
		return nil, fmt.Errorf("%w: name is %d bytes, wire limit 65535", ErrBadRecord, len(name))
	}
	if len(r.Neutralizers) > 0xFF {
		return nil, fmt.Errorf("%w: %d neutralizers, wire limit 255", ErrBadRecord, len(r.Neutralizers))
	}
	a, err := recordAddr4(r.Addr)
	if err != nil {
		return nil, err
	}
	pk := []byte{}
	if r.PublicKey.Valid() {
		pk = r.PublicKey.Marshal()
	}
	if len(pk) > 0xFFFF {
		return nil, fmt.Errorf("%w: public key is %d bytes, wire limit 65535", ErrBadRecord, len(pk))
	}
	out := make([]byte, 0, 2+len(name)+4+1+4*len(r.Neutralizers)+2+len(pk))
	out = append(out, byte(len(name)>>8), byte(len(name)))
	out = append(out, name...)
	out = append(out, a[:]...)
	out = append(out, byte(len(r.Neutralizers)))
	for _, n := range r.Neutralizers {
		n4, err := recordAddr4(n)
		if err != nil {
			return nil, err
		}
		out = append(out, n4[:]...)
	}
	out = append(out, byte(len(pk)>>8), byte(len(pk)))
	out = append(out, pk...)
	return out, nil
}

// UnmarshalRecord reverses Marshal. Like the audit report codec, it is
// strict: unconsumed bytes after the public key are a malformed message,
// not ignorable padding — round-tripping any accepted encoding must
// reproduce it byte for byte.
func UnmarshalRecord(b []byte) (Record, error) {
	if len(b) < 2 {
		return Record{}, ErrBadMessage
	}
	nl := int(b[0])<<8 | int(b[1])
	b = b[2:]
	if len(b) < nl+4+1 {
		return Record{}, ErrBadMessage
	}
	var r Record
	r.Name = string(b[:nl])
	b = b[nl:]
	r.Addr = netip.AddrFrom4([4]byte(b[:4]))
	b = b[4:]
	nn := int(b[0])
	b = b[1:]
	if len(b) < 4*nn+2 {
		return Record{}, ErrBadMessage
	}
	for i := 0; i < nn; i++ {
		r.Neutralizers = append(r.Neutralizers, netip.AddrFrom4([4]byte(b[:4])))
		b = b[4:]
	}
	pl := int(b[0])<<8 | int(b[1])
	b = b[2:]
	if len(b) < pl {
		return Record{}, ErrBadMessage
	}
	if pl > 0 {
		pk, err := e2e.UnmarshalPublicKey(b[:pl])
		if err != nil {
			return Record{}, err
		}
		// Only the canonical key form is a valid record field: a
		// non-minimal modulus encoding would re-encode shorter, breaking
		// Marshal/Unmarshal byte symmetry.
		if !bytes.Equal(pk.Marshal(), b[:pl]) {
			return Record{}, fmt.Errorf("%w: non-canonical public key encoding", ErrBadMessage)
		}
		r.PublicKey = pk
	}
	if len(b) != pl {
		return Record{}, fmt.Errorf("%w: %d trailing bytes after public key", ErrBadMessage, len(b)-pl)
	}
	return r, nil
}

// Message kinds on the wire.
const (
	msgQueryPlain  = 1
	msgQueryEnc    = 2
	msgAnswerPlain = 3
	msgAnswerEnc   = 4
	msgNXDomain    = 5
)

// Resolver is a DNS server bound to a netem node. If an Identity is set,
// it accepts encrypted queries: the query name and a response key arrive
// encrypted under the resolver's public key, and the answer comes back
// sealed.
type Resolver struct {
	node       *netem.Node
	zone       map[string]Record
	identity   *e2e.Identity
	queries    uint64
	encQueries uint64
}

// NewResolver installs a resolver on the given node. identity may be nil
// for a plaintext-only resolver.
func NewResolver(node *netem.Node, identity *e2e.Identity) *Resolver {
	r := &Resolver{node: node, zone: make(map[string]Record), identity: identity}
	node.SetHandler(r.handle)
	return r
}

// AddRecord publishes a record.
func (r *Resolver) AddRecord(rec Record) { r.zone[rec.Name] = rec }

// Queries reports total queries served; EncryptedQueries the encrypted
// subset.
func (r *Resolver) Queries() uint64 { return r.queries }

// EncryptedQueries reports encrypted queries served.
func (r *Resolver) EncryptedQueries() uint64 { return r.encQueries }

// Identity returns the resolver's public key (zero PublicKey if
// plaintext-only).
func (r *Resolver) Public() e2e.PublicKey {
	if r.identity == nil {
		return e2e.PublicKey{}
	}
	return r.identity.Public()
}

func (r *Resolver) handle(now time.Time, pkt []byte) {
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil || ip.Protocol != wire.ProtoUDP {
		return
	}
	var udp wire.UDP
	if err := udp.DecodeFromBytes(ip.Payload()); err != nil || udp.DstPort != Port {
		return
	}
	q := udp.Payload()
	if len(q) < 2 {
		return
	}
	r.queries++
	switch q[0] {
	case msgQueryPlain:
		nl := int(q[1])
		if len(q) < 2+nl {
			return
		}
		name := string(q[2 : 2+nl])
		rec, ok := r.zone[name]
		if !ok {
			r.reply(ip.Src, udp.SrcPort, []byte{msgNXDomain, 0})
			return
		}
		body, err := rec.Marshal()
		if err != nil {
			// A record the zone accepted but the wire cannot carry:
			// answer NXDomain rather than emit a corrupt encoding.
			r.reply(ip.Src, udp.SrcPort, []byte{msgNXDomain, 0})
			return
		}
		r.reply(ip.Src, udp.SrcPort, append([]byte{msgAnswerPlain, 0}, body...))
	case msgQueryEnc:
		if r.identity == nil {
			return
		}
		n := int(binary.BigEndian.Uint16(q[1:3]))
		if len(q) < 3+n {
			return
		}
		pt, err := r.identity.DecryptSmall(q[3 : 3+n])
		if err != nil || len(pt) < 32 {
			return
		}
		seed, name := pt[:32], string(pt[32:])
		sess, err := e2e.SessionFromSeed(seed, nil)
		if err != nil {
			return
		}
		r.encQueries++
		rec, ok := r.zone[name]
		var body []byte
		if !ok {
			body = []byte{msgNXDomain}
		} else if enc, err := rec.Marshal(); err != nil {
			body = []byte{msgNXDomain}
		} else {
			body = append([]byte{msgAnswerEnc}, enc...)
		}
		sealed, err := sess.Seal(body)
		if err != nil {
			return
		}
		r.reply(ip.Src, udp.SrcPort, append([]byte{msgAnswerEnc, 0}, sealed...))
	}
}

func (r *Resolver) reply(dst netip.Addr, dstPort uint16, payload []byte) {
	pkt, err := buildUDP(r.node.Addr(), dst, Port, dstPort, payload)
	if err != nil {
		return
	}
	_ = r.node.Send(pkt)
}

// encodeQueryPlain builds the plaintext query payload.
func encodeQueryPlain(name string) ([]byte, error) {
	if len(name) > 0xFF {
		return nil, fmt.Errorf("%w: name is %d bytes, wire limit 255", ErrBadRecord, len(name))
	}
	return append([]byte{msgQueryPlain, byte(len(name))}, name...), nil
}

// encodeQueryEncrypted builds the encrypted query payload and the
// session the answer will come back sealed under.
func encodeQueryEncrypted(rng io.Reader, resolverKey e2e.PublicKey, name string) ([]byte, *e2e.Session, error) {
	seed := make([]byte, 32)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return nil, nil, err
	}
	sess, err := e2e.SessionFromSeed(seed, rng)
	if err != nil {
		return nil, nil, err
	}
	ct, err := e2e.EncryptSmall(rng, resolverKey, append(seed, []byte(name)...))
	if err != nil {
		return nil, nil, fmt.Errorf("dnssim: encrypting query: %w", err)
	}
	q := make([]byte, 3+len(ct))
	q[0] = msgQueryEnc
	binary.BigEndian.PutUint16(q[1:3], uint16(len(ct)))
	copy(q[3:], ct)
	return q, sess, nil
}

// decodeAnswerPlain parses a plaintext answer payload (kind byte +
// reserved byte + record body).
func decodeAnswerPlain(body []byte) (Record, error) {
	if len(body) < 2 {
		return Record{}, ErrBadMessage
	}
	switch body[0] {
	case msgAnswerPlain:
		return UnmarshalRecord(body[2:])
	case msgNXDomain:
		return Record{}, ErrNoSuchName
	default:
		return Record{}, ErrBadMessage
	}
}

// decodeAnswerEncrypted opens a sealed answer payload with the query's
// session.
func decodeAnswerEncrypted(sess *e2e.Session, body []byte) (Record, error) {
	if len(body) < 2 || body[0] != msgAnswerEnc {
		return Record{}, ErrQueryFailed
	}
	pt, err := sess.Open(body[2:])
	if err != nil || len(pt) < 1 {
		return Record{}, ErrQueryFailed
	}
	if pt[0] == msgNXDomain {
		return Record{}, ErrNoSuchName
	}
	return UnmarshalRecord(pt[1:])
}

func buildUDP(src, dst netip.Addr, sport, dport uint16, payload []byte) ([]byte, error) {
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: sport, DstPort: dport, PseudoSrc: src, PseudoDst: dst},
	)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
