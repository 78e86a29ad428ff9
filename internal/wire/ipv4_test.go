package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func buildIPv4(t *testing.T, ip *IPv4, payload []byte) []byte {
	t.Helper()
	buf := NewSerializeBuffer(IPv4HeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := ip.SerializeTo(buf); err != nil {
		t.Fatalf("SerializeTo: %v", err)
	}
	return buf.Bytes()
}

func TestIPv4RoundTrip(t *testing.T) {
	in := &IPv4{
		TOS:      0xb8, // EF DSCP
		ID:       0x1234,
		Flags:    IPv4DontFragment,
		FragOff:  0,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      addr("10.0.0.1"),
		Dst:      addr("192.168.1.2"),
	}
	payload := []byte("hello, neutral world")
	pkt := buildIPv4(t, in, payload)

	if got, want := len(pkt), IPv4HeaderLen+len(payload); got != want {
		t.Fatalf("packet length = %d, want %d", got, want)
	}
	var out IPv4
	if err := out.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("DecodeFromBytes: %v", err)
	}
	if out.TOS != in.TOS || out.ID != in.ID || out.Flags != in.Flags ||
		out.FragOff != in.FragOff || out.TTL != in.TTL || out.Protocol != in.Protocol {
		t.Errorf("header fields mismatch: got %+v want %+v", out, in)
	}
	if out.Src != in.Src || out.Dst != in.Dst {
		t.Errorf("addresses: got %v->%v want %v->%v", out.Src, out.Dst, in.Src, in.Dst)
	}
	if !bytes.Equal(out.Payload(), payload) {
		t.Errorf("payload mismatch: got %q", out.Payload())
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, srcRaw, dstRaw [4]byte, payload []byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		in := &IPv4{
			TOS: tos, ID: id, TTL: ttl, Protocol: proto,
			Src: netip.AddrFrom4(srcRaw), Dst: netip.AddrFrom4(dstRaw),
		}
		buf := NewSerializeBuffer(IPv4HeaderLen, len(payload))
		buf.PushPayload(payload)
		if err := in.SerializeTo(buf); err != nil {
			return false
		}
		var out IPv4
		if err := out.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		return out.TOS == in.TOS && out.ID == in.ID && out.TTL == in.TTL &&
			out.Protocol == in.Protocol && out.Src == in.Src && out.Dst == in.Dst &&
			bytes.Equal(out.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIPv4ChecksumKnownVector(t *testing.T) {
	// Classic example header from RFC 1071 discussions.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	ck := Checksum(hdr)
	if ck != 0xb861 {
		t.Errorf("checksum = %#04x, want 0xb861", ck)
	}
	binary.BigEndian.PutUint16(hdr[10:12], ck)
	if Checksum(hdr) != 0 {
		t.Error("header with embedded checksum does not verify to zero")
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	valid := buildIPv4(t, &IPv4{TTL: 64, Protocol: ProtoUDP, Src: addr("1.2.3.4"), Dst: addr("5.6.7.8")}, []byte("x"))

	tests := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"short", func(p []byte) []byte { return p[:10] }, ErrIPv4TooShort},
		{"version", func(p []byte) []byte { p[0] = 0x65; return p }, ErrIPv4BadVersion},
		{"ihl", func(p []byte) []byte { p[0] = 0x44; return p }, ErrIPv4BadIHL},
		{"checksum", func(p []byte) []byte { p[8] ^= 0xff; return p }, ErrIPv4BadChecksum},
		{"length", func(p []byte) []byte {
			binary.BigEndian.PutUint16(p[2:4], uint16(len(p)+10))
			// repair checksum so only the length check fires
			p[10], p[11] = 0, 0
			binary.BigEndian.PutUint16(p[10:12], Checksum(p[:IPv4HeaderLen]))
			return p
		}, ErrIPv4BadLength},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkt := tc.mutate(bytes.Clone(valid))
			var out IPv4
			if err := out.DecodeFromBytes(pkt); err != tc.wantErr {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestRewritePreservesDSCP: the in-place header rewrite every forwarding
// hop performs (TTL decrement + checksum repair) must leave the ToS octet
// alone — the §3.4 DiffServ guarantee at the byte level.
func TestRewritePreservesDSCP(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: ProtoShim, TOS: 46 << 2, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")} // EF
	pkt := buildIPv4(t, ip, nil)
	if alive, err := DecrementTTL(pkt); err != nil || !alive {
		t.Fatalf("DecrementTTL = %v, %v", alive, err)
	}
	var out IPv4
	if err := out.DecodeFromBytes(pkt); err != nil {
		t.Fatal(err)
	}
	if out.DSCP() != 46 {
		t.Errorf("DSCP after rewrite = %d, want 46", out.DSCP())
	}
}

func TestDecrementTTL(t *testing.T) {
	pkt := buildIPv4(t, &IPv4{TTL: 2, Protocol: ProtoUDP, Src: addr("1.1.1.1"), Dst: addr("2.2.2.2")}, nil)
	alive, err := DecrementTTL(pkt)
	if err != nil || !alive {
		t.Fatalf("first decrement: alive=%v err=%v", alive, err)
	}
	var out IPv4
	if err := out.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("decode after TTL decrement: %v", err)
	}
	if out.TTL != 1 {
		t.Errorf("TTL = %d, want 1", out.TTL)
	}
	alive, err = DecrementTTL(pkt)
	if err != nil || alive {
		t.Errorf("TTL-exhausted packet reported alive=%v err=%v", alive, err)
	}
}

// TestRepairChecksumChecksIHL: a header that claims fewer than five
// words, or more than the data holds, cannot be re-summed; DecrementTTL
// used to "repair" the former over zero bytes, write 0xffff and report
// the packet alive.
func TestRepairChecksumChecksIHL(t *testing.T) {
	good := buildIPv4(t, &IPv4{TTL: 9, Protocol: ProtoUDP, Src: addr("1.1.1.1"), Dst: addr("2.2.2.2")}, []byte("payload"))
	for _, tc := range []struct {
		name   string
		verIHL byte
		cut    int
		want   error
	}{
		{"well-formed", 0x45, len(good), nil},
		{"IHL 0", 0x40, len(good), ErrIPv4BadIHL},
		{"IHL 4", 0x44, len(good), ErrIPv4BadIHL},
		{"IHL past the data", 0x4f, len(good), ErrIPv4TooShort},
		{"shorter than a header", 0x45, 19, ErrIPv4TooShort},
	} {
		pkt := bytes.Clone(good)[:tc.cut]
		pkt[0] = tc.verIHL
		before := bytes.Clone(pkt)
		if err := RepairChecksum(pkt); !errors.Is(err, tc.want) {
			t.Errorf("%s: RepairChecksum: %v, want %v", tc.name, err, tc.want)
		} else if err != nil && !bytes.Equal(pkt, before) {
			t.Errorf("%s: a refused header was written to", tc.name)
		}
		pkt = bytes.Clone(before)
		alive, err := DecrementTTL(pkt)
		if !errors.Is(err, tc.want) || alive != (tc.want == nil) {
			t.Errorf("%s: DecrementTTL: alive=%v err=%v, want error %v", tc.name, alive, err, tc.want)
		}
		if tc.want == nil && (Checksum(pkt[:IPv4HeaderLen]) != 0 || pkt[8] != 8) {
			t.Errorf("%s: header does not sum to zero after the repair, or TTL %d", tc.name, pkt[8])
		}
	}
}

func TestDSCPAccessors(t *testing.T) {
	ip := IPv4{TOS: 46<<2 | 0b11} // EF with both ECN bits set
	if ip.DSCP() != 46 {
		t.Errorf("DSCP = %d, want 46 (the ECN bits are not part of it)", ip.DSCP())
	}
}

func TestIPv4AddrsAndProto(t *testing.T) {
	pkt := buildIPv4(t, &IPv4{TTL: 9, Protocol: ProtoShim, Src: addr("10.1.2.3"), Dst: addr("10.4.5.6")}, nil)
	src, dst, err := IPv4Addrs(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if src != addr("10.1.2.3") || dst != addr("10.4.5.6") {
		t.Errorf("IPv4Addrs = %v, %v", src, dst)
	}
	proto, err := IPv4Proto(pkt)
	if err != nil || proto != ProtoShim {
		t.Errorf("IPv4Proto = %d, %v", proto, err)
	}
	if _, _, err := IPv4Addrs(pkt[:8]); err == nil {
		t.Error("IPv4Addrs on short packet: want error")
	}
	if _, err := IPv4Proto(pkt[:8]); err == nil {
		t.Error("IPv4Proto on short packet: want error")
	}
}

// checksumBytePairs is RFC 1071 as written: sixteen bits at a time, the
// carries folded back at the end. Checksum must equal it everywhere.
func checksumBytePairs(data []byte) uint16 {
	var sum uint32
	for ; len(data) >= 2; data = data[2:] {
		sum += uint32(data[0])<<8 | uint32(data[1])
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

func TestChecksumMatchesBytePairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(what string, data []byte) {
		t.Helper()
		if got, want := Checksum(data), checksumBytePairs(data); got != want {
			t.Fatalf("%s, %d bytes: Checksum %#04x, byte pairs %#04x", what, len(data), got, want)
		}
	}
	for n := 0; n <= 64; n++ { // every tail the word loop can leave, odd lengths included
		data := make([]byte, n)
		check("zeros", data)
		for i := range data {
			data[i] = 0xff // the most carries a length can produce
		}
		check("all ones", data)
		for i := 0; i < 50; i++ {
			rng.Read(data)
			check("random", data)
		}
	}
	for i := 0; i < 200; i++ {
		data := make([]byte, 1500-i%2)
		rng.Read(data)
		if i%4 == 0 {
			for j := range data {
				data[j] = 0xff
			}
		}
		check("MTU-sized", data)
		// A header carrying its own checksum still sums to zero.
		hdr := data[:IPv4HeaderLen+4*(i%11)]
		hdr[10], hdr[11] = 0, 0
		binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr))
		if Checksum(hdr) != 0 || checksumBytePairs(hdr) != 0 {
			t.Fatalf("%d-byte header with its checksum in place sums to %#04x", len(hdr), Checksum(hdr))
		}
	}
}

func TestChecksumIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(64)
		data := make([]byte, n)
		rng.Read(data)
		cut := rng.Intn(n)
		full := Checksum(data)
		split := checksumFold(checksumAdd(checksumAdd(0, data[:cut]), data[cut:]))
		// Splitting is only equivalent on even boundaries.
		if cut%2 == 0 && full != split {
			t.Fatalf("split checksum mismatch at n=%d cut=%d: %#x vs %#x", n, cut, full, split)
		}
	}
}
