package wire

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestUDPRoundTrip(t *testing.T) {
	in := &UDP{SrcPort: 5060, DstPort: 16384}
	payload := []byte("voip frame")

	buf := NewSerializeBuffer(UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := in.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var out UDP
	if err := out.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatalf("DecodeFromBytes: %v", err)
	}
	if out.SrcPort != 5060 || out.DstPort != 16384 {
		t.Errorf("ports = %d->%d", out.SrcPort, out.DstPort)
	}
	if !bytes.Equal(out.Payload(), payload) {
		t.Errorf("payload = %q", out.Payload())
	}
}

func TestUDPDecodeErrors(t *testing.T) {
	var u UDP
	if err := u.DecodeFromBytes(make([]byte, 4)); err != ErrUDPTooShort {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, 8)
	bad[5] = 4 // length 4 < header length
	if err := u.DecodeFromBytes(bad); err != ErrUDPBadLength {
		t.Errorf("bad length: %v", err)
	}
}

// TestUDPRoundTripProperty checks both writers of a datagram against each
// other and the decoders: AppendUDP, after whatever prefix the buffer
// already holds, must lay out exactly the bytes the prepend path
// (SerializeLayers, which the benchmark harness builds with) does, and
// those bytes must decode back to the addresses, ports and payload.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload, prefix []byte, srcRaw, dstRaw [4]byte) bool {
		src, dst := netip.AddrFrom4(srcRaw), netip.AddrFrom4(dstRaw)
		buf := NewSerializeBuffer(IPv4HeaderLen+UDPHeaderLen, len(payload))
		buf.PushPayload(payload)
		if err := SerializeLayers(buf,
			&IPv4{TTL: MaxTTL, Protocol: ProtoUDP, Src: src, Dst: dst},
			&UDP{SrcPort: sp, DstPort: dp},
		); err != nil {
			return false
		}
		appended, err := AppendUDP(bytes.Clone(prefix), src, dst, sp, dp, payload)
		if err != nil || !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], buf.Bytes()) {
			return false
		}
		var ip IPv4
		var out UDP
		if ip.DecodeFromBytes(buf.Bytes()) != nil || out.DecodeFromBytes(ip.Payload()) != nil {
			return false
		}
		return ip.Src == src && ip.Dst == dst && out.SrcPort == sp && out.DstPort == dp && bytes.Equal(out.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUDPOverIPv4EndToEnd(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.9.9.9")
	payload := []byte("application data")
	pkt, err := AppendUDP(nil, src, dst, 40000, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	var nl IPv4
	if err := nl.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if nl.Src != src || nl.Dst != dst || nl.TTL != MaxTTL || nl.Protocol != ProtoUDP {
		t.Fatalf("network layer = %+v", nl)
	}
	var tl UDP
	if err := tl.DecodeFromBytes(nl.Payload()); err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if tl.SrcPort != 40000 || tl.DstPort != 53 {
		t.Fatalf("transport layer = %+v", tl)
	}
	if !bytes.Equal(tl.Payload(), payload) {
		t.Errorf("application payload = %q", tl.Payload())
	}
	if ck := pkt[IPv4HeaderLen+6:][:2]; ck[0]|ck[1] != 0 {
		t.Errorf("UDP checksum field = %x, want zero (RFC 768: none)", ck)
	}
	if _, err := AppendUDP(nil, addr("::1"), dst, 1, 2, nil); err == nil {
		t.Error("AppendUDP accepted an IPv6 source")
	}
}
