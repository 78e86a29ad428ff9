package shim

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/wire"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func roundTrip(t *testing.T, in *Header, payload []byte) *Header {
	t.Helper()
	buf := wire.NewSerializeBuffer(128, len(payload))
	buf.PushPayload(payload)
	if err := in.SerializeTo(buf); err != nil {
		t.Fatalf("SerializeTo(%v): %v", in.Type, err)
	}
	var out Header
	if err := out.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatalf("DecodeFromBytes(%v): %v", in.Type, err)
	}
	if !bytes.Equal(out.Payload(), payload) {
		t.Errorf("%v: payload = %q, want %q", in.Type, out.Payload(), payload)
	}
	return &out
}

func TestKeySetupRequestRoundTrip(t *testing.T) {
	pk := bytes.Repeat([]byte{0xAA}, 66)
	in := &Header{Type: TypeKeySetupRequest, Epoch: 7, PublicKey: pk}
	out := roundTrip(t, in, nil)
	if !bytes.Equal(out.PublicKey, pk) {
		t.Error("public key mismatch")
	}
	if out.Epoch != 7 {
		t.Errorf("epoch = %d", out.Epoch)
	}
}

func TestKeySetupRequestOffloadedCarriesGrant(t *testing.T) {
	pk := bytes.Repeat([]byte{0xBB}, 66)
	g := Grant{Nonce: keys.Nonce{1, 2}, Key: aesutil.Key{3, 4}}
	in := &Header{Type: TypeKeySetupRequest, Flags: FlagOffloaded, PublicKey: pk, Grant: g}
	out := roundTrip(t, in, nil)
	if out.Grant != g {
		t.Errorf("grant = %+v, want %+v", out.Grant, g)
	}
	if !out.HasGrant() {
		t.Error("HasGrant() = false for offloaded setup")
	}
}

func TestKeySetupResponseRoundTrip(t *testing.T) {
	ct := bytes.Repeat([]byte{0xCD}, 64)
	in := &Header{Type: TypeKeySetupResponse, Epoch: 3, Ciphertext: ct}
	out := roundTrip(t, in, nil)
	if !bytes.Equal(out.Ciphertext, ct) {
		t.Error("ciphertext mismatch")
	}
}

func TestDataRoundTrip(t *testing.T) {
	var blk aesutil.AddrBlock
	for i := range blk {
		blk[i] = byte(i)
	}
	in := &Header{
		Type: TypeData, Flags: FlagKeyRequest, InnerProto: wire.ProtoUDP,
		Epoch: 12, Nonce: keys.Nonce{9, 9, 9}, HiddenAddr: blk,
	}
	out := roundTrip(t, in, []byte("inner"))
	if out.HiddenAddr != blk {
		t.Error("hidden address block mismatch")
	}
	if out.Flags&FlagKeyRequest == 0 {
		t.Error("key-request flag lost")
	}
	if out.InnerProto != wire.ProtoUDP {
		t.Errorf("InnerProto = %d, want UDP", out.InnerProto)
	}
}

func TestDeliveredWithAndWithoutGrant(t *testing.T) {
	neut := addr("10.200.0.1")
	plain := &Header{Type: TypeDelivered, ClearAddr: neut}
	out := roundTrip(t, plain, []byte("x"))
	if out.ClearAddr != neut {
		t.Errorf("clear addr = %v", out.ClearAddr)
	}
	if out.HasGrant() {
		t.Error("HasGrant without FlagGrant")
	}

	g := Grant{Nonce: keys.Nonce{5}, Key: aesutil.Key{6}}
	granted := &Header{Type: TypeDelivered, Flags: FlagGrant, ClearAddr: neut, Grant: g}
	out2 := roundTrip(t, granted, []byte("x"))
	if !out2.HasGrant() || out2.Grant != g {
		t.Errorf("grant = %+v", out2.Grant)
	}
}

func TestReturnRoundTrip(t *testing.T) {
	init := addr("198.51.100.7")
	in := &Header{Type: TypeReturn, InnerProto: wire.ProtoUDP, Nonce: keys.Nonce{1}, ClearAddr: init}
	out := roundTrip(t, in, []byte("resp"))
	if out.ClearAddr != init {
		t.Errorf("initiator = %v", out.ClearAddr)
	}
}

func TestReturnDeliveredRoundTrip(t *testing.T) {
	var blk aesutil.AddrBlock
	blk[0] = 0xEE
	in := &Header{Type: TypeReturnDelivered, Nonce: keys.Nonce{2}, HiddenAddr: blk}
	out := roundTrip(t, in, []byte("resp"))
	if out.HiddenAddr != blk {
		t.Error("hidden source block mismatch")
	}
}

func TestKeyFetchRoundTrip(t *testing.T) {
	peer := addr("203.0.113.5")
	req := &Header{Type: TypeKeyFetchRequest, ClearAddr: peer}
	outReq := roundTrip(t, req, nil)
	if outReq.ClearAddr != peer {
		t.Errorf("peer = %v", outReq.ClearAddr)
	}

	g := Grant{Nonce: keys.Nonce{7}, Key: aesutil.Key{8}}
	resp := &Header{Type: TypeKeyFetchResponse, Epoch: 1, Grant: g}
	outResp := roundTrip(t, resp, nil)
	if outResp.Grant != g || !outResp.HasGrant() {
		t.Errorf("grant = %+v", outResp.Grant)
	}
}

func TestAltDataRoundTrip(t *testing.T) {
	ct := bytes.Repeat([]byte{0x11}, 128)
	in := &Header{Type: TypeAltData, InnerProto: wire.ProtoUDP, Ciphertext: ct}
	out := roundTrip(t, in, []byte("pp"))
	if !bytes.Equal(out.Ciphertext, ct) {
		t.Error("alt ciphertext mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	var h Header
	if err := h.DecodeFromBytes(make([]byte, 8)); err != ErrTooShort {
		t.Errorf("short header: %v", err)
	}
	bad := make([]byte, HeaderLen)
	bad[0] = 200
	if err := h.DecodeFromBytes(bad); err != ErrBadType {
		t.Errorf("bad type: %v", err)
	}
	// Data type with truncated body.
	data := make([]byte, HeaderLen+4)
	data[0] = byte(TypeData)
	if err := h.DecodeFromBytes(data); err != ErrTooShort {
		t.Errorf("truncated data body: %v", err)
	}
	// KeySetupRequest with lying length prefix.
	ksr := make([]byte, HeaderLen+4)
	ksr[0] = byte(TypeKeySetupRequest)
	ksr[HeaderLen] = 0xFF
	ksr[HeaderLen+1] = 0xFF
	if err := h.DecodeFromBytes(ksr); err != ErrTooShort {
		t.Errorf("lying pubkey length: %v", err)
	}
}

func TestSerializeRejectsNonIPv4ClearAddr(t *testing.T) {
	in := &Header{Type: TypeReturn, ClearAddr: netip.MustParseAddr("2001:db8::1")}
	buf := wire.NewSerializeBuffer(64, 0)
	if err := in.SerializeTo(buf); err != ErrNotIPv4 {
		t.Errorf("err = %v, want ErrNotIPv4", err)
	}
}

func TestSerializeRejectsUnknownType(t *testing.T) {
	in := &Header{Type: Type(99)}
	buf := wire.NewSerializeBuffer(64, 0)
	if err := in.SerializeTo(buf); err != ErrBadType {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestPeekType(t *testing.T) {
	in := &Header{Type: TypeData, Nonce: keys.Nonce{0xDE, 0xAD}, HiddenAddr: aesutil.AddrBlock{}}
	buf := wire.NewSerializeBuffer(64, 0)
	if err := in.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	tt, ok := PeekType(buf.Bytes())
	if !ok || tt != TypeData {
		t.Errorf("PeekType = %v, %v", tt, ok)
	}
	if _, ok := PeekType(nil); ok {
		t.Error("PeekType(nil) should fail")
	}
	if _, ok := PeekType([]byte{byte(len(typeNames))}); ok {
		t.Error("PeekType(unknown type) should fail")
	}
}

func TestSetupPlaintextRoundTrip(t *testing.T) {
	n := keys.Nonce{1, 2, 3, 4, 5, 6, 7, 8}
	k := aesutil.Key{9, 10, 11}
	b := EncodeSetupPlaintext(n, k)
	if len(b) != SetupPlaintextLen {
		t.Errorf("len = %d", len(b))
	}
	gn, gk, err := DecodeSetupPlaintext(b)
	if err != nil || gn != n || gk != k {
		t.Errorf("roundtrip = %v %v %v", gn, gk, err)
	}
	if _, _, err := DecodeSetupPlaintext(b[:10]); err == nil {
		t.Error("short plaintext should fail")
	}
}

func TestGrantMarshalProperty(t *testing.T) {
	f := func(n [8]byte, k [16]byte) bool {
		g := Grant{Nonce: keys.Nonce(n), Key: aesutil.Key(k)}
		var enc [GrantLen]byte
		g.encodeTo(enc[:])
		got, err := UnmarshalGrant(enc[:])
		return err == nil && got == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(nonce [8]byte, epoch uint32, blk [16]byte, payload []byte) bool {
		in := &Header{
			Type: TypeData, InnerProto: wire.ProtoUDP,
			Epoch: keys.Epoch(epoch), Nonce: keys.Nonce(nonce),
			HiddenAddr: aesutil.AddrBlock(blk),
		}
		buf := wire.NewSerializeBuffer(DataOverhead, len(payload))
		buf.PushPayload(payload)
		if err := in.SerializeTo(buf); err != nil {
			return false
		}
		var out Header
		if err := out.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		return out.Epoch == in.Epoch && out.Nonce == in.Nonce &&
			out.HiddenAddr == in.HiddenAddr && bytes.Equal(out.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildPacketRoundTrip reads a BuildPacket datagram back through the
// struct decoders, one layer at a time: IP (ToS verbatim, §3.4) | shim |
// the inner UDP datagram handed in as payload.
func TestBuildPacketRoundTrip(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.9.9.9")
	const efTOS = 46 << 2
	payload := []byte("app data over udp")
	inner := wire.NewSerializeBuffer(wire.UDPHeaderLen, len(payload))
	inner.PushPayload(payload)
	if err := (&wire.UDP{SrcPort: 1000, DstPort: 2000}).SerializeTo(inner); err != nil {
		t.Fatal(err)
	}
	in := &Header{Type: TypeData, InnerProto: wire.ProtoUDP, Nonce: keys.Nonce{4}}
	pkt, err := BuildPacket(src, dst, efTOS, in, inner.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.IPv4HeaderLen + in.EncodedLen() + inner.Len(); len(pkt) != want {
		t.Errorf("packet = %d bytes, want %d", len(pkt), want)
	}
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if ip.Src != src || ip.Dst != dst || ip.Protocol != wire.ProtoShim || ip.TOS != efTOS || ip.TTL != wire.MaxTTL {
		t.Errorf("ip header = %+v", ip)
	}
	var sh Header
	if err := sh.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatalf("no shim layer found: %v", err)
	}
	if sh.Type != TypeData || sh.Nonce != in.Nonce {
		t.Errorf("shim = %v nonce %v", sh.Type, sh.Nonce)
	}
	var udp wire.UDP
	if err := udp.DecodeFromBytes(sh.Payload()); err != nil || udp.DstPort != 2000 {
		t.Errorf("inner UDP not decoded: %+v (%v)", udp, err)
	}
	if !bytes.Equal(udp.Payload(), payload) {
		t.Errorf("payload = %q", udp.Payload())
	}
	if _, err := BuildPacket(src, dst, 0, &Header{Type: Type(200)}, nil); !errors.Is(err, ErrBadType) {
		t.Errorf("unknown type: err = %v, want ErrBadType", err)
	}
}

func TestDataPacketSizeMatchesDocumentedOverhead(t *testing.T) {
	// The benchmark packet: IP + shim(Data) + UDP + 64B payload.
	src, dst := addr("10.0.0.1"), addr("10.9.9.9")
	payload := make([]byte, 64)
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+DataOverhead+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoShim, Src: src, Dst: dst},
		&Header{Type: TypeData, InnerProto: wire.ProtoUDP},
		&wire.UDP{SrcPort: 1, DstPort: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.IPv4HeaderLen + DataOverhead + wire.UDPHeaderLen + 64 // 124
	if got := buf.Len(); got != want {
		t.Errorf("neutralized 64B-payload packet = %d bytes, want %d", got, want)
	}
}
