package endhost

import (
	"maps"
	mathrand "math/rand"
	"net/netip"
	"testing"

	"netneutral/internal/e2e"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// FuzzEndhostFrame hands fuzzed application frames to three hosts in the
// middle of their conversations: to Google inside a Delivered packet, and
// to Ann inside a ReturnDelivered under her conduit's nonce and a valid
// hidden block, after key setup, the grant and a second exchange — so
// those frames reach openFrame — and to Ann inside the ReturnDelivered of
// a §3.3 reverse initiation from a second customer, Mail, before and after
// Ann took it — so those reach acceptReverseInit. Each input meets a
// fresh copy of the host. Nothing may panic. A frame is either accepted
// (DataReceived) or refused (FramesRejected), and a refused one delivers
// nothing, adds no conversation, moves no conduit and replaces no
// session. No unsealed frame moves a conduit or replaces a session.
func FuzzEndhostFrame(f *testing.F) {
	rng := mathrand.New(mathrand.NewSource(7))
	annID, err := e2e.NewIdentity(rng, 0)
	if err != nil {
		f.Fatal(err)
	}
	googID, err := e2e.NewIdentity(rng, 0)
	if err != nil {
		f.Fatal(err)
	}
	w := newWorld(f)
	ann, annRecv := w.addHost(f, annAddr, true, func(c *Config) { c.Identity = annID })
	goog, googRecv := w.addHost(f, googAddr, false, func(c *Config) { c.Identity = googID })
	// Mail only initiates, so any identity will do; a new one costs a key.
	mail, _ := w.addHost(f, mailAddr, false, func(c *Config) { c.Identity = googID })
	if err := ann.Setup(anycast); err != nil {
		f.Fatal(err)
	}
	if err := ann.Connect(anycast, googAddr, googID.Public()); err != nil {
		f.Fatal(err)
	}
	for _, m := range []string{"one", "two"} {
		if err := ann.Send(googAddr, []byte(m)); err != nil {
			f.Fatal(err)
		}
		if err := goog.Send(annAddr, []byte("re: "+m)); err != nil {
			f.Fatal(err)
		}
	}
	if len(*annRecv) != 2 || len(*googRecv) != 2 || ann.ConduitProvisional(anycast) {
		f.Fatalf("conversation: ann got %q, google got %q", *annRecv, *googRecv)
	}
	forward, annBefore := len(w.handed), copyHost(ann, nil)
	if err := mail.InitiateTo(anycast, annAddr, annID.Public(), []byte("hello ann")); err != nil {
		f.Fatal(err)
	}
	if len(*annRecv) != 3 {
		f.Fatalf("reverse initiation: ann got %q", *annRecv)
	}

	// The frames the conversations carried are the seeds: whole, cut
	// short, and with the sealed or offer flag flipped. The last packet of
	// each kind is the template the fuzzed frame rides in.
	type target struct {
		host *Host
		peer netip.Addr
		pkt  []byte
	}
	targets := []target{{goog, annAddr, nil}, {ann, googAddr, nil}, {annBefore, mailAddr, nil}, {ann, mailAddr, nil}}
	for i, pkt := range w.handed {
		ip, sh := decode(f, pkt)
		if sh.Type != shim.TypeDelivered && sh.Type != shim.TypeReturnDelivered {
			continue
		}
		to := []uint8{0}
		switch {
		case i >= forward:
			to = []uint8{2, 3}
		case ip.Dst == annAddr:
			to = []uint8{1}
		}
		frame := sh.Payload()
		for _, t := range to {
			targets[t].pkt = pkt
			f.Add(t, frame)
			f.Add(t, frame[:len(frame)/2])
			f.Add(t, frame[:2])
			for _, flag := range []byte{fFlagSealed, fFlagOffer} {
				flipped := append([]byte(nil), frame...)
				flipped[1] ^= flag
				f.Add(t, flipped)
			}
		}
	}

	f.Fuzz(func(t *testing.T, to uint8, frame []byte) {
		tg := targets[int(to)%len(targets)]
		ip, sh := decode(t, tg.pkt)
		pkt, err := shim.BuildPacket(ip.Src, ip.Dst, 0, &sh, frame)
		if err != nil {
			return // too long for a packet
		}
		delivered := 0
		h := copyHost(tg.host, func(netip.Addr, []byte) { delivered++ })
		before, conduits, convs, sess := h.Stats(), conduitState(h), len(h.convs), sessionOf(h, tg.peer)
		h.HandlePacket(tStart, pkt)
		after := h.Stats()
		accepted, refused := after.DataReceived-before.DataReceived, after.FramesRejected-before.FramesRejected
		if accepted+refused != 1 || delivered > int(accepted) {
			t.Fatalf("frame %x: %d accepted, %d refused, %d delivered", frame, accepted, refused, delivered)
		}
		unsealed := len(frame) < 2 || frame[1]&fFlagSealed == 0
		if refused == 1 && len(h.convs) != convs {
			t.Fatalf("refused frame %x added a conversation", frame)
		}
		if refused == 1 || unsealed {
			if !maps.Equal(conduits, conduitState(h)) {
				t.Fatalf("frame %x (refused %v) moved a conduit: %+v", frame, refused == 1, conduitState(h))
			}
			if sessionOf(h, tg.peer) != sess {
				t.Fatalf("frame %x (refused %v) replaced the session", frame, refused == 1)
			}
		}
	})
}

// copyHost is a copy of h that shares nothing a packet can change with
// it, sends nothing and hands its data to onData. Sessions are shared:
// opening a box does not change one.
func copyHost(h *Host, onData func(netip.Addr, []byte)) *Host {
	c := *h
	c.cfg.OnData = onData
	c.cfg.Transport = func([]byte) error { return nil }
	c.conduits = make(map[netip.Addr]*conduit, len(h.conduits))
	for a, cd := range h.conduits {
		cp := *cd
		c.conduits[a] = &cp
	}
	c.convs = make(map[netip.Addr]*conv, len(h.convs))
	for a, cv := range h.convs {
		cp := *cv
		c.convs[a] = &cp
	}
	c.pendingSetup, c.pendingInit, c.pendingPub = maps.Clone(h.pendingSetup), maps.Clone(h.pendingInit), maps.Clone(h.pendingPub)
	return &c
}

func decode(t testing.TB, pkt []byte) (wire.IPv4, shim.Header) {
	t.Helper()
	var ip wire.IPv4
	var sh shim.Header
	if err := ip.DecodeFromBytes(pkt); err != nil {
		t.Fatal(err)
	}
	if err := sh.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatal(err)
	}
	return ip, sh
}

func sessionOf(h *Host, peer netip.Addr) *e2e.Session {
	if c := h.convs[peer]; c != nil {
		return c.sess
	}
	return nil
}

func conduitState(h *Host) map[netip.Addr]conduit {
	m := make(map[netip.Addr]conduit, len(h.conduits))
	for a, c := range h.conduits {
		m[a] = *c
	}
	return m
}
