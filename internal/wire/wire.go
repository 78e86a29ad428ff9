// Package wire implements the packet model used throughout netneutral.
//
// Packets on the emulated network and on the real UDP transport are plain
// []byte IPv4 datagrams. There are two ways to read one: decode into a
// caller-owned struct (IPv4, UDP, and shim.Header one layer up) with
// DecodeFromBytes, or peek a fixed offset (IPv4Addrs, IPv4Proto). There is
// one writer per header layout (IPv4.Put, shim.Header.Put) and two ways to
// reach it: push the payload into a SerializeBuffer and prepend each
// header in front of it, innermost first (SerializeTo), or — when the
// sizes are known up front, as for every packet the neutralizer emits —
// lay the packet out once and Put each header in place
// (shim.AppendPacket).
package wire

import "fmt"

// SerializeBuffer accumulates packet bytes for writing. Layers are
// serialized outermost-last: each layer prepends its header to the bytes
// already present (which it treats as its payload). The zero value is
// ready to use.
type SerializeBuffer struct {
	buf   []byte // data lives at buf[start:]
	start int
}

// NewSerializeBuffer returns a buffer with space reserved for expected
// headroom (bytes of headers to be prepended) and an initial payload size.
func NewSerializeBuffer(headroom, payload int) *SerializeBuffer {
	b := make([]byte, headroom, headroom+payload)
	return &SerializeBuffer{buf: b, start: headroom}
}

// Bytes returns the serialized packet so far.
func (s *SerializeBuffer) Bytes() []byte { return s.buf[s.start:] }

// Len returns the current packet length.
func (s *SerializeBuffer) Len() int { return len(s.buf) - s.start }

// PrependBytes returns a slice of n fresh bytes at the front of the
// packet for a layer header to fill in.
func (s *SerializeBuffer) PrependBytes(n int) []byte {
	if s.start >= n {
		s.start -= n
		return s.buf[s.start : s.start+n]
	}
	// Grow at the front.
	grow := n - s.start
	nb := make([]byte, len(s.buf)+grow)
	copy(nb[n:], s.buf[s.start:])
	s.buf = nb
	s.start = 0
	return s.buf[:n]
}

// PushPayload appends p to the back of the packet.
func (s *SerializeBuffer) PushPayload(p []byte) {
	s.buf = append(s.buf, p...)
}

// Clear resets the buffer, preserving capacity, with the given headroom.
func (s *SerializeBuffer) Clear(headroom int) {
	if cap(s.buf) < headroom {
		s.buf = make([]byte, headroom)
	}
	s.buf = s.buf[:headroom]
	s.start = headroom
}

// SerializableLayer is a header that can write itself in front of an
// existing payload held in a SerializeBuffer.
type SerializableLayer interface {
	SerializeTo(b *SerializeBuffer) error
}

// SerializeLayers serializes the given layers in front of whatever buf
// already holds (the caller pushes the raw payload first); layers[0]
// becomes the outermost header.
func SerializeLayers(buf *SerializeBuffer, layers ...SerializableLayer) error {
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(buf); err != nil {
			return fmt.Errorf("wire: serializing %T: %w", layers[i], err)
		}
	}
	return nil
}
