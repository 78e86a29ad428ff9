package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"netneutral/internal/benchenv"
	"netneutral/internal/wire"
)

// fuzzSeedPackets builds the seed corpus from real packets produced by
// the benchmark environment: a key-setup request, forward data, return
// and vanilla UDP packets, exactly as they appear on the emulated wire.
func fuzzSeedPackets(f *testing.F) [][]byte {
	f.Helper()
	env, err := benchenv.NewBenchEnv(false, true)
	if err != nil {
		f.Fatal(err)
	}
	pkts := [][]byte{env.SetupPkt, env.DataPkt, env.ReturnPkt, env.AltPkt, env.VanillaPkt}
	batch, err := env.DataBatch(4, 4)
	if err != nil {
		f.Fatal(err)
	}
	return append(pkts, batch...)
}

// FuzzIPv4Parse throws hostile bytes at the IPv4 decoder and the in-place
// header primitives the data plane depends on (TTL decrement, cheap field
// peeks). The data plane must never panic on a packet, and every in-place
// mutation must leave a packet the decoder still accepts.
func FuzzIPv4Parse(f *testing.F) {
	for _, pkt := range fuzzSeedPackets(f) {
		f.Add(pkt)
	}
	// Corner seeds: truncated header, bad version, IHL games, length lies.
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add([]byte{0x60, 0, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x4f, 0, 0, 60, 0, 0, 0, 0, 64, 17, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x45, 0, 0xff, 0xff, 0, 0, 0, 0, 64, 17, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ip wire.IPv4
		if err := ip.DecodeFromBytes(data); err != nil {
			// Rejected input: the cheap peeks must also never panic.
			wire.IPv4Addrs(data)
			wire.IPv4Proto(data)
			return
		}
		if !ip.Src.Is4() || !ip.Dst.Is4() {
			t.Fatalf("decoded non-IPv4 addresses %v -> %v", ip.Src, ip.Dst)
		}
		// Header-length accounting: the payload is exactly what lies
		// between the IHL·4-byte header and the total-length field, and
		// neither reaches past the input.
		ihl, total := int(data[0]&0x0f)*4, int(binary.BigEndian.Uint16(data[2:4]))
		if total > len(data) || total-len(ip.Payload()) != ihl {
			t.Fatalf("header+payload accounting: total %d - payload %d != ihl %d (input %d)",
				total, len(ip.Payload()), ihl, len(data))
		}
		src, dst, err := wire.IPv4Addrs(data)
		if err != nil || src != ip.Src || dst != ip.Dst {
			t.Fatalf("IPv4Addrs disagrees with decoder: %v/%v vs %v/%v (%v)", src, dst, ip.Src, ip.Dst, err)
		}
		if proto, err := wire.IPv4Proto(data); err != nil || proto != ip.Protocol {
			t.Fatalf("IPv4Proto disagrees with decoder: %d vs %d (%v)", proto, ip.Protocol, err)
		}

		// In-place primitives must preserve decodability (checksum repair).
		cp := append([]byte(nil), data...)
		var ip2 wire.IPv4
		alive, err := wire.DecrementTTL(cp)
		if err != nil {
			t.Fatalf("DecrementTTL rejected a decodable packet: %v", err)
		}
		if alive {
			if err := ip2.DecodeFromBytes(cp); err != nil {
				t.Fatalf("packet undecodable after TTL decrement: %v", err)
			}
			if ip2.TTL != ip.TTL-1 {
				t.Fatalf("TTL %d after decrement of %d", ip2.TTL, ip.TTL)
			}
		}

		// Round trip: reserializing the decoded fields must produce a
		// packet that decodes to the same header (options are not
		// preserved — the serializer emits the canonical 20-byte header).
		buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen, len(ip.Payload()))
		buf.PushPayload(ip.Payload())
		if err := ip.SerializeTo(buf); err != nil {
			t.Fatalf("reserialize failed: %v", err)
		}
		var ip3 wire.IPv4
		if err := ip3.DecodeFromBytes(buf.Bytes()); err != nil {
			t.Fatalf("reserialized packet undecodable: %v", err)
		}
		if ip3.Src != ip.Src || ip3.Dst != ip.Dst || ip3.Protocol != ip.Protocol ||
			ip3.TOS != ip.TOS || ip3.TTL != ip.TTL || ip3.ID != ip.ID ||
			ip3.Flags != ip.Flags || ip3.FragOff != ip.FragOff {
			t.Fatal("round-tripped header fields diverge")
		}
		if !bytes.Equal(ip3.Payload(), ip.Payload()) {
			t.Fatal("round-tripped payload diverges")
		}
	})
}
