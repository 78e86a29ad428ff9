package wire

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// Errors returned by UDP decoding.
var (
	ErrUDPTooShort    = errors.New("wire: data too short for UDP header")
	ErrUDPBadLength   = errors.New("wire: UDP length field inconsistent with data")
	ErrUDPBadChecksum = errors.New("wire: UDP checksum mismatch")
)

// UDP is a decoded UDP header.
//
// Checksums are computed over the IPv4 pseudo-header; callers must set
// PseudoSrc and PseudoDst before SerializeTo, and may set them before
// DecodeFromBytes to enable verification (left unset, the checksum is not
// verified, matching common NIC-offload behaviour).
type UDP struct {
	SrcPort, DstPort uint16

	// PseudoSrc and PseudoDst feed the pseudo-header for checksumming.
	PseudoSrc, PseudoDst netip.Addr

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
	if u.PseudoSrc.IsValid() && u.PseudoDst.IsValid() {
		if ck := binary.BigEndian.Uint16(data[6:8]); ck != 0 {
			if udpChecksum(u.PseudoSrc, u.PseudoDst, data[:length]) != 0 {
				return ErrUDPBadChecksum
			}
		}
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.payload = data[UDPHeaderLen:length]
	return nil
}

// SerializeTo prepends the header. The buffer's current contents
// become the UDP payload.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	hdr := b.PrependBytes(UDPHeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(UDPHeaderLen+payloadLen))
	hdr[6], hdr[7] = 0, 0
	if u.PseudoSrc.IsValid() && u.PseudoDst.IsValid() {
		ck := udpChecksum(u.PseudoSrc, u.PseudoDst, b.Bytes()[:UDPHeaderLen+payloadLen])
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted zero means "no checksum"
		}
		binary.BigEndian.PutUint16(hdr[6:8], ck)
	}
	return nil
}

// udpChecksum computes the UDP checksum including the IPv4 pseudo-header.
// A datagram with a correct embedded checksum sums to zero.
func udpChecksum(src, dst netip.Addr, segment []byte) uint16 {
	var pseudo [12]byte
	s, d := src.As4(), dst.As4()
	copy(pseudo[0:4], s[:])
	copy(pseudo[4:8], d[:])
	pseudo[9] = ProtoUDP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	sum := checksumAdd(0, pseudo[:])
	sum = checksumAdd(sum, segment)
	return checksumFold(sum)
}
