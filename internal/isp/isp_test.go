package isp

import (
	mathrand "math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

var (
	srcA = netip.MustParseAddr("172.16.0.1")
	dstB = netip.MustParseAddr("10.10.0.5")
)

func udpPkt(t testing.TB, src, dst netip.Addr, sport, dport uint16, payload []byte) []byte {
	t.Helper()
	buf := wire.NewSerializeBuffer(28, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: sport, DstPort: dport},
	); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func shimPkt(t testing.TB, src, dst netip.Addr, typ shim.Type, inner []byte) []byte {
	t.Helper()
	sh := &shim.Header{Type: typ, Nonce: keys.Nonce{1}}
	switch typ {
	case shim.TypeData, shim.TypeReturnDelivered:
		sh.HiddenAddr = aesutil.AddrBlock{1, 2, 3}
		sh.InnerProto = wire.ProtoUDP
	case shim.TypeKeySetupRequest:
		sh.PublicKey = []byte{1, 2, 3, 4}
	case shim.TypeReturn:
		sh.ClearAddr = srcA
	}
	buf := wire.NewSerializeBuffer(64, len(inner))
	buf.PushPayload(inner)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoShim, Src: src, Dst: dst},
		sh,
	); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAddressMatchers(t *testing.T) {
	pkt := udpPkt(t, srcA, dstB, 100, 200, nil)
	if !MatchDstAddr(dstB)(pkt) || MatchDstAddr(srcA)(pkt) {
		t.Error("MatchDstAddr")
	}
}

func TestProtoAndPortMatchers(t *testing.T) {
	plain := udpPkt(t, srcA, dstB, 5060, 16384, []byte("rtp"))
	if !MatchUDPPort(5060)(plain) || !MatchUDPPort(16384)(plain) || MatchUDPPort(80)(plain) {
		t.Error("MatchUDPPort on plain UDP")
	}
	// Port visible through an unencrypted shim'd UDP header too.
	neutral := shimPkt(t, srcA, dstB, shim.TypeData, mkUDPSegment(t, 5060, 16384))
	if !MatchUDPPort(5060)(neutral) {
		t.Error("MatchUDPPort should see through shim to inner UDP header")
	}
}

func mkUDPSegment(t testing.TB, sport, dport uint16) []byte {
	t.Helper()
	buf := wire.NewSerializeBuffer(8, 4)
	buf.PushPayload([]byte("data"))
	if err := (&wire.UDP{SrcPort: sport, DstPort: dport}).SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDPIMatcher(t *testing.T) {
	pkt := udpPkt(t, srcA, dstB, 1, 2, []byte("GET /index.html"))
	if !MatchPayloadContains([]byte("GET "))(pkt) {
		t.Error("DPI should match plaintext")
	}
	if MatchPayloadContains([]byte("POST"))(pkt) {
		t.Error("DPI false positive")
	}
	if MatchPayloadContains([]byte("x"))([]byte{}) {
		t.Error("DPI on empty packet")
	}
}

func matchAll([]byte) bool { return true }

func TestPolicyFirstMatchAndHits(t *testing.T) {
	p := NewPolicy(mathrand.New(mathrand.NewSource(1)),
		Rule{Name: "target-google", Match: MatchDstAddr(dstB), Action: Action{Delay: 50 * time.Millisecond}},
		Rule{Name: "catch-all", Match: matchAll, Action: Action{}},
	)
	hook := p.Hook()
	v := hook(time.Time{}, nil, udpPkt(t, srcA, dstB, 1, 2, nil))
	if v.Delay != 50*time.Millisecond || v.Drop {
		t.Errorf("verdict = %+v", v)
	}
	if p.Hits("target-google") != 1 || p.Hits("catch-all") != 0 {
		t.Error("first-match semantics violated")
	}
	other := udpPkt(t, srcA, netip.MustParseAddr("10.99.0.1"), 1, 2, nil)
	hook(time.Time{}, nil, other)
	if p.Hits("catch-all") != 1 {
		t.Error("fallthrough rule not hit")
	}
}

func TestPolicyDropProbability(t *testing.T) {
	p := NewPolicy(mathrand.New(mathrand.NewSource(42)),
		Rule{Name: "half", Match: matchAll, Action: Action{DropProb: 0.5}},
	)
	hook := p.Hook()
	pkt := udpPkt(t, srcA, dstB, 1, 2, nil)
	drops := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if hook(time.Time{}, nil, pkt).Drop {
			drops++
		}
	}
	if drops < n*4/10 || drops > n*6/10 {
		t.Errorf("drop rate = %d/%d, want ~50%%", drops, n)
	}
}

func TestPolicyInNetem(t *testing.T) {
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	s := netem.NewSimulator(start, 1)
	a := s.MustAddNode("a", "att", srcA)
	r := s.MustAddNode("r", "att", netip.MustParseAddr("172.16.0.254"))
	b := s.MustAddNode("b", "cogent", dstB)
	s.Connect(a, r, netem.LinkConfig{Delay: time.Millisecond})
	s.Connect(r, b, netem.LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()

	p := NewPolicy(mathrand.New(mathrand.NewSource(1)),
		Rule{Name: "kill-b", Match: MatchDstAddr(dstB), Action: Action{DropProb: 1}},
	)
	r.AddTransitHook(p.Hook())

	delivered := 0
	b.SetHandler(func(time.Time, []byte) { delivered++ })
	for i := 0; i < 5; i++ {
		_ = a.Send(udpPkt(t, srcA, dstB, 1, 2, nil))
	}
	s.Run()
	if delivered != 0 {
		t.Errorf("targeted traffic delivered %d packets despite drop rule", delivered)
	}
	if p.Hits("kill-b") != 5 {
		t.Errorf("hits = %d", p.Hits("kill-b"))
	}
}

func TestEavesdropperVisibility(t *testing.T) {
	e := NewEavesdropper()
	hook := e.Hook()
	now := time.Now()

	// Plain UDP: everything visible.
	hook(now, nil, udpPkt(t, srcA, dstB, 5060, 16384, []byte("hello")))
	// Neutralized data packet: only outer header + shim type visible.
	anycast := netip.MustParseAddr("10.200.0.1")
	hook(now, nil, shimPkt(t, srcA, anycast, shim.TypeData, nil))

	obs := e.obs
	if len(obs) != 2 {
		t.Fatalf("observations = %d", len(obs))
	}
	if !obs[0].InnerVisible || obs[0].InnerDstPort != 16384 {
		t.Error("plain UDP ports should be visible")
	}
	if obs[1].InnerVisible {
		t.Error("neutralized packet's inner headers must not be visible")
	}
	if obs[1].ShimType != shim.TypeData {
		t.Errorf("shim type = %v (visible per §3.6)", obs[1].ShimType)
	}
	if !e.SawAddr(dstB) {
		t.Error("plain traffic exposes dstB")
	}
	if e.SawAddr(netip.MustParseAddr("10.10.0.99")) {
		t.Error("false SawAddr")
	}
}
