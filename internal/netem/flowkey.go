package netem

import (
	"fmt"
	"net/netip"

	"netneutral/internal/wire"
)

// FlowKey identifies a bidirectional flow by its IPv4 endpoint pair and
// protocol, with the endpoints in canonical (numerically ascending)
// order so both directions of a conversation map to the same key. It is
// a small comparable value type: map lookups on it never allocate,
// which is what lets flow-state observers (package dpi) ride the
// forwarding hot path.
type FlowKey struct {
	Lo, Hi [4]byte
	Proto  uint8
}

// String renders the key for logs and test failures.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d.%d.%d.%d<->%d.%d.%d.%d/%d",
		k.Lo[0], k.Lo[1], k.Lo[2], k.Lo[3],
		k.Hi[0], k.Hi[1], k.Hi[2], k.Hi[3], k.Proto)
}

// FlowKeyOf extracts the canonical flow key from a serialized IPv4
// packet without allocating. forward reports whether the packet's
// source is the Lo endpoint (i.e. which direction of the flow this
// packet travels); ok is false for packets too short to carry an IPv4
// header.
func FlowKeyOf(pkt []byte) (k FlowKey, forward bool, ok bool) {
	if len(pkt) < wire.IPv4HeaderLen {
		return FlowKey{}, false, false
	}
	var src, dst [4]byte
	copy(src[:], pkt[12:16])
	copy(dst[:], pkt[16:20])
	k.Proto = pkt[9]
	if lessAddr4(src, dst) {
		k.Lo, k.Hi = src, dst
		return k, true, true
	}
	k.Lo, k.Hi = dst, src
	return k, false, true
}

// FlowKeyFrom builds the canonical key for an (src, dst, proto) triple;
// the experiment harness uses it to name expected flows without
// constructing packets.
func FlowKeyFrom(src, dst netip.Addr, proto uint8) (FlowKey, error) {
	if !src.Is4() || !dst.Is4() {
		return FlowKey{}, ErrMalformedIPv4
	}
	a, b := src.As4(), dst.As4()
	k := FlowKey{Proto: proto}
	if lessAddr4(a, b) {
		k.Lo, k.Hi = a, b
	} else {
		k.Lo, k.Hi = b, a
	}
	return k, nil
}

func lessAddr4(a, b [4]byte) bool {
	for i := 0; i < 4; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return true // equal: treat as forward
}

// NowNanos returns the simulator clock as integer nanoseconds — the
// timestamp form flow trackers keep per-flow (inter-arrival math on
// int64 stays allocation- and conversion-free on the hot path).
func (s *Simulator) NowNanos() int64 { return s.now() }
