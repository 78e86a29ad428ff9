package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers used by this system.
const (
	ProtoUDP uint8 = 17
	// ProtoShim is the IP protocol number carried by neutralized packets.
	// The paper fixes "a known value" for the shim; we use 253, reserved
	// for experimentation and testing by RFC 3692.
	ProtoShim uint8 = 253
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// MaxTTL is the initial time-to-live for generated packets.
const MaxTTL uint8 = 64

// Errors returned by IPv4 decoding.
var (
	ErrIPv4TooShort    = errors.New("wire: data too short for IPv4 header")
	ErrIPv4BadVersion  = errors.New("wire: IP version is not 4")
	ErrIPv4BadIHL      = errors.New("wire: IPv4 IHL below minimum")
	ErrIPv4BadChecksum = errors.New("wire: IPv4 header checksum mismatch")
	ErrIPv4BadLength   = errors.New("wire: IPv4 total length inconsistent with data")
)

// IPv4 is a decoded IPv4 header.
type IPv4 struct {
	// TOS is the full type-of-service octet: DSCP in the upper six bits,
	// ECN in the lower two. Neutralizers preserve it verbatim (§3.4).
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr

	payload []byte
}

// IPv4Flags bit values.
const (
	IPv4DontFragment  = 0b010
	IPv4MoreFragments = 0b001
)

// DSCP returns the DiffServ codepoint (upper six TOS bits).
func (ip *IPv4) DSCP() uint8 { return ip.TOS >> 2 }

// Payload returns the bytes the datagram carries for upper layers: what
// follows the header, bounded by the total-length field.
func (ip *IPv4) Payload() []byte { return ip.payload }

// DecodeFromBytes leaves ip describing data. It verifies version, IHL,
// total length and header checksum.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return ErrIPv4TooShort
	}
	if data[0]>>4 != 4 {
		return ErrIPv4BadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return ErrIPv4BadIHL
	}
	if len(data) < ihl {
		return ErrIPv4TooShort
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	if totalLen < ihl || totalLen > len(data) {
		return ErrIPv4BadLength
	}
	if Checksum(data[:ihl]) != 0 {
		return ErrIPv4BadChecksum
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	ip.payload = data[ihl:totalLen]
	return nil
}

// SerializeTo prepends the header. The buffer's current contents
// become the IP payload; total length and checksum are computed here.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	totalLen := IPv4HeaderLen + b.Len()
	return ip.Put(b.PrependBytes(IPv4HeaderLen), totalLen)
}

// Put writes the option-less header of a totalLen-byte datagram into
// hdr[:IPv4HeaderLen], checksum included. It is the one writer of the
// layout: SerializeTo prepends through it, and a caller that lays a whole
// packet out itself (shim.AppendPacket) fills the front of it in place.
func (ip *IPv4) Put(hdr []byte, totalLen int) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("wire: IPv4 requires 4-byte addresses (src=%v dst=%v)", ip.Src, ip.Dst)
	}
	// The header as its five big-endian words, summed before they are
	// stored: re-reading bytes just written would wait on the stores.
	src, dst := ip.Src.As4(), ip.Dst.As4()
	w0 := (4<<4|IPv4HeaderLen/4)<<24 | uint32(ip.TOS)<<16 | uint32(uint16(totalLen))
	w1 := uint32(ip.ID)<<16 | uint32(ip.Flags&0b111)<<13 | uint32(ip.FragOff&0x1fff)
	w2 := uint32(ip.TTL)<<24 | uint32(ip.Protocol)<<16 // checksum field zero
	w3, w4 := binary.BigEndian.Uint32(src[:]), binary.BigEndian.Uint32(dst[:])
	w2 |= uint32(checksumFold(uint64(w0) + uint64(w1) + uint64(w2) + uint64(w3) + uint64(w4)))
	hdr = hdr[:IPv4HeaderLen]
	binary.BigEndian.PutUint32(hdr[0:], w0)
	binary.BigEndian.PutUint32(hdr[4:], w1)
	binary.BigEndian.PutUint32(hdr[8:], w2)
	binary.BigEndian.PutUint32(hdr[12:], w3)
	binary.BigEndian.PutUint32(hdr[16:], w4)
	return nil
}

// Checksum computes the Internet checksum (RFC 1071) over data. A header
// with a correct embedded checksum sums to zero.
func Checksum(data []byte) uint16 {
	return checksumFold(checksumAdd(0, data))
}

// checksumAdd accumulates data into a running non-folded checksum sum,
// eight bytes at a time: 2^16 ≡ 1 (mod 0xffff), so the one's-complement
// sum of 16-bit words is also the folded sum of the big-endian 32-bit
// words, and a uint64 takes 2^32 of those before it can carry out. A
// chunk that is not the last must have even length.
func checksumAdd(sum uint64, data []byte) uint64 {
	for len(data) >= 8 {
		w := binary.BigEndian.Uint64(data)
		sum += w>>32 + w&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	return sum
}

// checksumFold brings the end-around carries back in. A non-zero sum
// never folds to zero, so the result is the byte-pair algorithm's.
func checksumFold(sum uint64) uint16 {
	sum = sum>>32 + sum&0xffffffff // < 2^33
	sum = sum>>16 + sum&0xffff     // < 2^18
	sum = sum>>16 + sum&0xffff     // ≤ 0x10001
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// IPv4Addrs extracts the source and destination addresses from a
// serialized IPv4 packet without full decoding.
func IPv4Addrs(pkt []byte) (src, dst netip.Addr, err error) {
	if len(pkt) < IPv4HeaderLen {
		return netip.Addr{}, netip.Addr{}, ErrIPv4TooShort
	}
	return netip.AddrFrom4([4]byte(pkt[12:16])), netip.AddrFrom4([4]byte(pkt[16:20])), nil
}

// IPv4Proto extracts the protocol field from a serialized IPv4 packet.
func IPv4Proto(pkt []byte) (uint8, error) {
	if len(pkt) < IPv4HeaderLen {
		return 0, ErrIPv4TooShort
	}
	return pkt[9], nil
}

// DecrementTTL decrements the TTL of a serialized IPv4 packet in place,
// repairing the checksum. It reports false when the TTL is exhausted (the
// packet must then be dropped).
func DecrementTTL(pkt []byte) (alive bool, err error) {
	if len(pkt) < IPv4HeaderLen {
		return false, ErrIPv4TooShort
	}
	if pkt[8] <= 1 {
		return false, nil
	}
	pkt[8]--
	if err := RepairChecksum(pkt); err != nil {
		return false, err
	}
	return true, nil
}

// RepairChecksum re-sums the header of a serialized IPv4 packet after an
// in-place edit of one of its fields. A header whose IHL is below the
// minimum or runs past the data is left as it is and reported.
func RepairChecksum(pkt []byte) error {
	if len(pkt) < IPv4HeaderLen {
		return ErrIPv4TooShort
	}
	ihl := int(pkt[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return ErrIPv4BadIHL
	}
	if len(pkt) < ihl {
		return ErrIPv4TooShort
	}
	pkt[10], pkt[11] = 0, 0
	binary.BigEndian.PutUint16(pkt[10:12], Checksum(pkt[:ihl]))
	return nil
}
