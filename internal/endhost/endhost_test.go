package endhost

import (
	"bytes"
	mathrand "math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/e2e"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

var (
	tStart   = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	anycast  = netip.MustParseAddr("10.200.0.1")
	annAddr  = netip.MustParseAddr("172.16.1.10")
	googAddr = netip.MustParseAddr("10.10.0.5")
	mailAddr = netip.MustParseAddr("10.10.0.6")
	custNet  = netip.MustParsePrefix("10.10.0.0/16")
)

// world wires hosts and a neutralizer together with a synchronous
// in-memory network, recording every packet that crosses the "outside"
// segment (between an outside host and the neutralizer) for
// eavesdropping assertions.
type world struct {
	t       testing.TB
	neut    *core.Neutralizer
	hosts   map[netip.Addr]*Host
	outside map[netip.Addr]bool // addresses on the discriminatory side
	tapped  [][]byte            // packets visible to the discriminatory ISP
	handed  [][]byte            // packets handed to a host, in order
}

func newWorld(t testing.TB) *world {
	t.Helper()
	w := &world{t: t, hosts: make(map[netip.Addr]*Host), outside: map[netip.Addr]bool{annAddr: true}}
	sched := keys.NewSchedule(aesutil.Key{7}, tStart, time.Hour)
	n, err := core.New(core.Config{
		Schedule:   sched,
		Anycast:    anycast,
		IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
		Clock:      func() time.Time { return tStart.Add(10 * time.Minute) },
		Rand:       mathrand.New(mathrand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.neut = n
	return w
}

// route delivers a packet: neutralizer traffic through ProcessScratch,
// the rest to the destination host. A packet is tapped when it physically crosses
// the discriminatory segment: from an outside host toward the service, or
// delivered to an outside host. (A Delivered packet src=Ann dst=Google
// travels only inside the friendly ISP and is not visible outside.)
func (w *world) route(pkt []byte) error {
	src, dst, err := wire.IPv4Addrs(pkt)
	if err != nil {
		return err
	}
	if (dst == anycast && w.outside[src]) || w.outside[dst] {
		w.tapped = append(w.tapped, bytes.Clone(pkt))
	}
	if dst == anycast {
		outs, err := w.neut.ProcessScratch(core.NewScratch(), pkt)
		if err != nil {
			return err
		}
		for _, o := range outs {
			if err := w.route(o.Pkt); err != nil {
				return err
			}
		}
		return nil
	}
	if h, ok := w.hosts[dst]; ok {
		w.handed = append(w.handed, bytes.Clone(pkt))
		h.HandlePacket(tStart, pkt)
	}
	return nil
}

// addHost adds a host at addr; mut may set its Identity, else it gets a
// fresh one.
func (w *world) addHost(t testing.TB, addr netip.Addr, outside bool, mut func(*Config)) (*Host, *[][]byte) {
	t.Helper()
	var received [][]byte
	cfg := Config{
		Addr:      addr,
		Transport: w.route,
		Clock:     func() time.Time { return tStart },
		Rand:      mathrand.New(mathrand.NewSource(int64(addr.As4()[3]))),
		OnData: func(peer netip.Addr, data []byte) {
			received = append(received, bytes.Clone(data))
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	if cfg.Identity == nil {
		id, err := e2e.NewIdentity(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Identity = id
	}
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.hosts[addr] = h
	if outside {
		w.outside[addr] = true
	}
	return h, &received
}

func TestForwardConversationEndToEnd(t *testing.T) {
	w := newWorld(t)
	ann, annRecv := w.addHost(t, annAddr, true, nil)
	goog, googRecv := w.addHost(t, googAddr, false, nil)

	// Figure 2(a): key setup.
	if err := ann.Setup(anycast); err != nil {
		t.Fatal(err)
	}
	if !ann.HasConduit(anycast) {
		t.Fatal("conduit not established after synchronous setup")
	}
	if !ann.ConduitProvisional(anycast) {
		t.Fatal("fresh conduit should be provisional (short-RSA protected)")
	}

	// Figure 2(b): data exchange.
	if err := ann.Connect(anycast, googAddr, goog.cfg.Identity.Public()); err != nil {
		t.Fatal(err)
	}
	if err := ann.Send(googAddr, []byte("hello from ann")); err != nil {
		t.Fatal(err)
	}
	if len(*googRecv) != 1 || string((*googRecv)[0]) != "hello from ann" {
		t.Fatalf("google received %q", *googRecv)
	}

	// Reply: grant should ride back and retire the provisional key.
	if err := goog.Send(annAddr, []byte("hello from google")); err != nil {
		t.Fatal(err)
	}
	if len(*annRecv) != 1 || string((*annRecv)[0]) != "hello from google" {
		t.Fatalf("ann received %q", *annRecv)
	}
	if ann.ConduitProvisional(anycast) {
		t.Error("grant not applied: conduit still provisional")
	}
	if got := ann.Stats().GrantsApplied; got != 1 {
		t.Errorf("GrantsApplied = %d", got)
	}
	if got := goog.Stats().GrantsReturned; got != 1 {
		t.Errorf("GrantsReturned = %d", got)
	}

	// Steady state both ways with the refreshed key.
	if err := ann.Send(googAddr, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := goog.Send(annAddr, []byte("third")); err != nil {
		t.Fatal(err)
	}
	if len(*googRecv) != 2 || len(*annRecv) != 2 {
		t.Fatalf("message counts: goog=%d ann=%d", len(*googRecv), len(*annRecv))
	}
}

// TestEavesdropperSeesNothing is the Figure 2 security claim: on the
// discriminatory side of the neutralizer, neither the customer's address
// nor the plaintext payload nor the granted key appears in any packet.
func TestEavesdropperSeesNothing(t *testing.T) {
	w := newWorld(t)
	ann, _ := w.addHost(t, annAddr, true, nil)
	goog, googRecv := w.addHost(t, googAddr, false, nil)

	secret := []byte("SECRET-PAYLOAD-DO-NOT-LEAK")
	if err := ann.Setup(anycast); err != nil {
		t.Fatal(err)
	}
	if err := ann.Connect(anycast, googAddr, goog.cfg.Identity.Public()); err != nil {
		t.Fatal(err)
	}
	if err := ann.Send(googAddr, secret); err != nil {
		t.Fatal(err)
	}
	if err := goog.Send(annAddr, []byte("REPLY-ALSO-SECRET")); err != nil {
		t.Fatal(err)
	}
	if len(*googRecv) != 1 {
		t.Fatal("sanity: data did not flow")
	}

	goog4 := googAddr.As4()
	for i, pkt := range w.tapped {
		if bytes.Contains(pkt, secret) {
			t.Errorf("packet %d leaks plaintext payload", i)
		}
		if bytes.Contains(pkt, []byte("REPLY-ALSO-SECRET")) {
			t.Errorf("packet %d leaks reply payload", i)
		}
		if bytes.Contains(pkt, goog4[:]) {
			t.Errorf("packet %d leaks the customer address %v", i, googAddr)
		}
	}
	if len(w.tapped) < 4 {
		t.Errorf("expected at least setup req/resp + data + reply on the wire, got %d", len(w.tapped))
	}
}

func TestReverseInitiation(t *testing.T) {
	w := newWorld(t)
	ann, annRecv := w.addHost(t, annAddr, true, nil)
	goog, googRecv := w.addHost(t, googAddr, false, nil)

	// Google starts the conversation (§3.3): no prior setup by Ann.
	err := goog.InitiateTo(anycast, annAddr, ann.cfg.Identity.Public(), []byte("ping from google"))
	if err != nil {
		t.Fatal(err)
	}
	if len(*annRecv) != 1 || string((*annRecv)[0]) != "ping from google" {
		t.Fatalf("ann received %q", *annRecv)
	}
	if goog.Stats().ReverseInits != 1 {
		t.Error("ReverseInits counter")
	}
	// Ann can reply without ever running Setup: she adopted the conveyed
	// key material as her conduit.
	if !ann.HasConduit(anycast) {
		t.Fatal("ann did not adopt a conduit from the reverse init")
	}
	if err := ann.Send(googAddr, []byte("pong from ann")); err != nil {
		t.Fatal(err)
	}
	if len(*googRecv) != 1 || string((*googRecv)[0]) != "pong from ann" {
		t.Fatalf("google received %q", *googRecv)
	}
	// And the payloads were sealed on the wire.
	for i, pkt := range w.tapped {
		if bytes.Contains(pkt, []byte("ping from google")) || bytes.Contains(pkt, []byte("pong from ann")) {
			t.Errorf("packet %d leaks reverse-init payload", i)
		}
	}
}

// TestSeededRunReplays: with every RNG seeded — each host's Rand, the
// neutralizer's — a §3.3 reverse initiation and then a forward
// conversation over the conduit it left, each answered, put the same
// bytes on the wire twice running. The RSA keys are what does not
// replay from a seed (crypto/rsa's key generation and crypto/rand.Prime
// read an extra byte at random): the identities are made once, and no
// host runs the one-time-key Setup.
func TestSeededRunReplays(t *testing.T) {
	ids := make([]*e2e.Identity, 3)
	for i := range ids {
		id, err := e2e.NewIdentity(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wire [2][][]byte
	for i := range wire {
		w := newWorld(t)
		ann, annRecv := w.addHost(t, annAddr, true, func(c *Config) { c.Identity = ids[0] })
		goog, googRecv := w.addHost(t, googAddr, false, func(c *Config) { c.Identity = ids[1] })
		mail, mailRecv := w.addHost(t, mailAddr, false, func(c *Config) { c.Identity = ids[2] })
		for _, step := range []func() error{
			func() error { return mail.InitiateTo(anycast, annAddr, ann.Identity(), []byte("ping")) },
			func() error { return ann.Send(mailAddr, []byte("pong")) },
			func() error { return ann.Connect(anycast, googAddr, goog.Identity()) },
			func() error { return ann.Send(googAddr, []byte("hello")) },
			func() error { return goog.Send(annAddr, []byte("hi")) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if len(*annRecv) != 2 || len(*googRecv) != 1 || len(*mailRecv) != 1 {
			t.Fatalf("ann got %q, google %q, mail %q", *annRecv, *googRecv, *mailRecv)
		}
		wire[i] = append(w.tapped, w.handed...)
	}
	if !slices.EqualFunc(wire[0], wire[1], bytes.Equal) {
		t.Errorf("a seeded run does not replay: %d then %d packets", len(wire[0]), len(wire[1]))
	}
}

func TestAPIErrors(t *testing.T) {
	w := newWorld(t)
	ann, _ := w.addHost(t, annAddr, true, nil)
	goog, _ := w.addHost(t, googAddr, false, nil)

	if err := ann.Send(googAddr, []byte("x")); err != ErrNoConversation {
		t.Errorf("Send without Connect: %v", err)
	}
	if err := ann.Connect(anycast, googAddr, goog.cfg.Identity.Public()); err != ErrNoConduit {
		t.Errorf("Connect without Setup: %v", err)
	}
	if err := ann.Setup(anycast); err != nil {
		t.Fatal(err)
	}
	// Setup completed synchronously, so a second Setup starts fresh...
	if err := ann.Setup(anycast); err != nil {
		t.Errorf("re-setup after completion: %v", err)
	}
	// ...but a third while one is pending fails. Simulate by blocking the
	// response: use a transport that drops everything.
	drop, err := NewHost(Config{Addr: netip.MustParseAddr("172.16.1.99"),
		Transport: func([]byte) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if err := drop.Setup(anycast); err != nil {
		t.Fatal(err)
	}
	if err := drop.Setup(anycast); err != ErrSetupPending {
		t.Errorf("double pending setup: %v", err)
	}
	if err := goog.InitiateTo(anycast, annAddr, ann.cfg.Identity.Public(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewHost(Config{Addr: netip.MustParseAddr("::1"),
		Transport: func([]byte) error { return nil }}); err == nil {
		t.Error("IPv6 addr accepted")
	}
	if _, err := NewHost(Config{Addr: annAddr}); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestHandlePacketGarbage(t *testing.T) {
	w := newWorld(t)
	ann, _ := w.addHost(t, annAddr, true, nil)
	before := ann.Stats().FramesRejected
	ann.HandlePacket(tStart, []byte{1, 2, 3})
	// Non-shim traffic is ignored silently (not "rejected").
	pkt, err := wire.AppendUDP(nil, googAddr, annAddr, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ann.HandlePacket(tStart, pkt)
	if got := ann.Stats().FramesRejected; got != before+1 {
		t.Errorf("FramesRejected = %d, want %d", got, before+1)
	}
}

func TestGrantDeduplication(t *testing.T) {
	h, err := NewHost(Config{Addr: annAddr, Transport: func([]byte) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	h.conduits[anycast] = &conduit{neut: anycast, nonce: keys.Nonce{1}, key: aesutil.Key{1}, provisional: true}
	g := shim.Grant{Nonce: keys.Nonce{2}, Key: aesutil.Key{2}}
	h.applyGrant(anycast, g, 0)
	h.applyGrant(anycast, g, 0) // duplicate
	if h.Stats().GrantsApplied != 1 {
		t.Errorf("GrantsApplied = %d, want 1", h.Stats().GrantsApplied)
	}
	cd := h.conduits[anycast]
	if cd.provisional || cd.nonce != g.Nonce {
		t.Error("grant not applied correctly")
	}
	if !cd.hasPrev || cd.prevNonce != (keys.Nonce{1}) {
		t.Error("previous key not retained")
	}
}

func TestOpenFrameErrors(t *testing.T) {
	h, err := NewHost(Config{Addr: annAddr, Transport: func([]byte) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.openFrame(nil, []byte{99, 0}); err != ErrBadFrame {
		t.Errorf("bad version: %v", err)
	}
	if _, err := h.openFrame(nil, []byte{frameVersion}); err != ErrBadFrame {
		t.Errorf("truncated: %v", err)
	}
	// Sealed flag without a session.
	if _, err := h.openFrame(nil, []byte{frameVersion, fFlagSealed, 0, 0, 0}); err != ErrBadFrame {
		t.Errorf("sealed without session: %v", err)
	}
	// Control-only empty frame.
	if in, err := h.openFrame(nil, nil); err != nil || in.data != nil {
		t.Errorf("empty frame: %v %v", in.data, err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	w := newWorld(t)
	ann, _ := w.addHost(t, annAddr, true, nil)
	goog, _ := w.addHost(t, googAddr, false, nil)
	if err := ann.Setup(anycast); err != nil {
		t.Fatal(err)
	}
	if err := ann.Connect(anycast, googAddr, goog.cfg.Identity.Public()); err != nil {
		t.Fatal(err)
	}
	if err := ann.Send(googAddr, make([]byte, 70000)); err != ErrPayloadTooLarge {
		t.Errorf("err = %v, want ErrPayloadTooLarge", err)
	}
}

// returnDelivered forges what an ISP between the neutralizer and Ann
// could send her once it knows her conduit key: a ReturnDelivered from
// Google under a valid hidden block, carrying frame.
func returnDelivered(t *testing.T, ann *Host, frame []byte) []byte {
	t.Helper()
	cd := ann.conduits[anycast]
	blk, err := aesutil.EncryptAddr(cd.key, googAddr, [8]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shim.Header{Type: shim.TypeReturnDelivered, Epoch: cd.epoch, Nonce: cd.nonce, HiddenAddr: blk}
	pkt, err := shim.BuildPacket(anycast, annAddr, 0, sh, frame)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestUnsealedFrameCannotGrant: once Ann and Google share an e2e session,
// a plain frame in Ann's conversation is refused — it delivers nothing —
// and a grant is applied only from a sealed body, so a forged plain grant
// cannot choose the key that retires the short-RSA one (§3.2).
func TestUnsealedFrameCannotGrant(t *testing.T) {
	w := newWorld(t)
	ann, annRecv := w.addHost(t, annAddr, true, nil)
	goog, _ := w.addHost(t, googAddr, false, nil)
	if err := ann.Setup(anycast); err != nil {
		t.Fatal(err)
	}
	if err := ann.Connect(anycast, googAddr, goog.cfg.Identity.Public()); err != nil {
		t.Fatal(err)
	}
	if err := ann.Send(googAddr, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := goog.Send(annAddr, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if len(*annRecv) != 1 || ann.Stats().GrantsApplied != 1 {
		t.Fatalf("setup: ann received %q, %d grants applied", *annRecv, ann.Stats().GrantsApplied)
	}
	before, key := ann.Stats(), *ann.conduits[anycast]

	forged := []byte{frameVersion, 0, bFlagGrant, 0, 0, 0, 1}
	forged = append(forged, bytes.Repeat([]byte{0xee}, shim.GrantLen)...)
	forged = append(forged, 0, 6)
	forged = append(forged, "forged"...)
	plain := []byte{frameVersion, 0, 0, 0, 5, 'p', 'l', 'a', 'i', 'n'}
	for _, frame := range [][]byte{forged, plain} {
		ann.HandlePacket(tStart, returnDelivered(t, ann, frame))
	}
	after := ann.Stats()
	if len(*annRecv) != 1 || after.DataReceived != before.DataReceived {
		t.Errorf("unsealed frames delivered: %q", *annRecv)
	}
	if after.GrantsApplied != before.GrantsApplied || *ann.conduits[anycast] != key {
		t.Errorf("an unsealed grant moved the conduit: %d grants applied, %+v", after.GrantsApplied, *ann.conduits[anycast])
	}
	if after.FramesRejected != before.FramesRejected+2 {
		t.Errorf("FramesRejected = %d, want %d", after.FramesRejected, before.FramesRejected+2)
	}
}
