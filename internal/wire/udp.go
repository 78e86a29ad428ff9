package wire

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// Errors returned by UDP decoding.
var (
	ErrUDPTooShort  = errors.New("wire: data too short for UDP header")
	ErrUDPBadLength = errors.New("wire: UDP length field inconsistent with data")
)

// UDP is a decoded UDP header. Its checksum is written as zero, RFC 768's
// "none", and is not read.
type UDP struct {
	SrcPort, DstPort uint16

	payload []byte
}

// Payload returns the datagram's data, bounded by the length field.
func (u *UDP) Payload() []byte { return u.payload }

// DecodeFromBytes leaves u describing data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return ErrUDPTooShort
	}
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < UDPHeaderLen || length > len(data) {
		return ErrUDPBadLength
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.payload = data[UDPHeaderLen:length]
	return nil
}

// SerializeTo prepends the header. The buffer's current contents
// become the UDP payload.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	b.PrependBytes(UDPHeaderLen)
	u.Put(b.Bytes())
	return nil
}

// Put writes the header into seg[:UDPHeaderLen], seg being the whole
// datagram with its payload in place. It is the one writer of the layout:
// SerializeTo prepends through it, and AppendUDP fills its slot in place.
func (u *UDP) Put(seg []byte) {
	binary.BigEndian.PutUint16(seg[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], u.DstPort)
	binary.BigEndian.PutUint16(seg[4:6], uint16(len(seg)))
	seg[6], seg[7] = 0, 0
}

// AppendUDP appends IP(src→dst) | UDP(sport→dport) | payload to b and
// returns the extended slice: the datagram is laid out once, both headers
// written in place by IPv4.Put and UDP.Put, then one copy of the payload.
// It is the UDP twin of shim.AppendPacket.
func AppendUDP(b []byte, src, dst netip.Addr, sport, dport uint16, payload []byte) ([]byte, error) {
	off, hl := len(b), IPv4HeaderLen+UDPHeaderLen
	b = append(slices.Grow(b, hl+len(payload))[:off+hl], payload...)
	ip := IPv4{TTL: MaxTTL, Protocol: ProtoUDP, Src: src, Dst: dst}
	if err := ip.Put(b[off:], len(b)-off); err != nil {
		return nil, err
	}
	u := UDP{SrcPort: sport, DstPort: dport}
	u.Put(b[off+IPv4HeaderLen:])
	return b, nil
}
