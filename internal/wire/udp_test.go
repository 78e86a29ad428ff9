package wire

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestUDPRoundTrip(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.0.0.2")
	in := &UDP{SrcPort: 5060, DstPort: 16384, PseudoSrc: src, PseudoDst: dst}
	payload := []byte("voip frame")

	buf := NewSerializeBuffer(UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := in.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	out := &UDP{PseudoSrc: src, PseudoDst: dst}
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

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.0.0.2")
	in := &UDP{SrcPort: 1000, DstPort: 2000, PseudoSrc: src, PseudoDst: dst}
	buf := NewSerializeBuffer(UDPHeaderLen, 4)
	buf.PushPayload([]byte("data"))
	if err := in.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	pkt := buf.Bytes()
	pkt[len(pkt)-1] ^= 0x01
	out := &UDP{PseudoSrc: src, PseudoDst: dst}
	if err := out.DecodeFromBytes(pkt); err != ErrUDPBadChecksum {
		t.Errorf("err = %v, want ErrUDPBadChecksum", err)
	}
}

func TestUDPChecksumSkippedWithoutPseudo(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.0.0.2")
	in := &UDP{SrcPort: 1, DstPort: 2, PseudoSrc: src, PseudoDst: dst}
	buf := NewSerializeBuffer(UDPHeaderLen, 4)
	buf.PushPayload([]byte("data"))
	if err := in.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	pkt := buf.Bytes()
	pkt[len(pkt)-1] ^= 0x01 // corrupt
	var out UDP             // no pseudo addresses -> verification skipped
	if err := out.DecodeFromBytes(pkt); err != nil {
		t.Errorf("decode without pseudo-header should skip checksum, got %v", err)
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

func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte, srcRaw, dstRaw [4]byte) bool {
		src, dst := netip.AddrFrom4(srcRaw), netip.AddrFrom4(dstRaw)
		in := &UDP{SrcPort: sp, DstPort: dp, PseudoSrc: src, PseudoDst: dst}
		buf := NewSerializeBuffer(UDPHeaderLen, len(payload))
		buf.PushPayload(payload)
		if err := in.SerializeTo(buf); err != nil {
			return false
		}
		out := &UDP{PseudoSrc: src, PseudoDst: dst}
		if err := out.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		return out.SrcPort == sp && out.DstPort == dp && bytes.Equal(out.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUDPOverIPv4EndToEnd(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.9.9.9")
	payload := []byte("application data")
	buf := NewSerializeBuffer(IPv4HeaderLen+UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	err := SerializeLayers(buf,
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst},
		&UDP{SrcPort: 40000, DstPort: 53, PseudoSrc: src, PseudoDst: dst},
	)
	if err != nil {
		t.Fatal(err)
	}
	var nl IPv4
	if err := nl.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if nl.Src != src || nl.Dst != dst {
		t.Fatalf("network layer = %+v", nl)
	}
	tl := UDP{PseudoSrc: nl.Src, PseudoDst: nl.Dst}
	if err := tl.DecodeFromBytes(nl.Payload()); err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if tl.SrcPort != 40000 || tl.DstPort != 53 {
		t.Fatalf("transport layer = %+v", tl)
	}
	if !bytes.Equal(tl.Payload(), payload) {
		t.Errorf("application payload = %q", tl.Payload())
	}
}
