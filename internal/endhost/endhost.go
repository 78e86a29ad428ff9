// Package endhost implements the modified host software the paper
// assumes: the client- and server-side shim stack that speaks to
// neutralizers.
//
// A Host plays either (or both) of two roles:
//
//   - An outside host (the paper's Ann, inside a discriminatory ISP)
//     performs Figure 2(a) key setup with a destination's neutralizer,
//     then sends Data packets whose real destination is encrypted under
//     the session key. The first packets carry a key request; once the
//     destination returns the neutralizer-stamped grant under end-to-end
//     encryption, the host retires the short-RSA-protected key (§3.2).
//
//   - A customer host (the paper's Google, inside the friendly ISP)
//     receives Delivered packets, replies via Return packets through the
//     neutralizer, returns stamped key grants to initiators inside the
//     end-to-end envelope, optionally serves as an offload helper for the
//     neutralizer's RSA work, and can itself initiate conversations with
//     outside hosts via the §3.3 plaintext key fetch.
//
// Application payloads ride in frames that are sealed end-to-end as soon
// as a session exists (the first packet of a conversation carries the key
// offer that creates it), so a discriminatory ISP sees neither contents
// nor the returned grants.
//
// A Host is NOT safe for concurrent use: drive it — HandlePacket
// included — from a single goroutine (an event loop or the netem
// simulator), which also keeps in-process packet chains re-entrant.
package endhost

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/e2e"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Errors returned by this package.
var (
	ErrNoConduit       = errors.New("endhost: no conduit to that neutralizer (run Setup first)")
	ErrNoConversation  = errors.New("endhost: no conversation with that peer")
	ErrSetupPending    = errors.New("endhost: key setup already in flight")
	ErrNotReady        = errors.New("endhost: conduit not established yet")
	ErrNeedIdentity    = errors.New("endhost: operation requires an e2e identity")
	ErrBadFrame        = errors.New("endhost: malformed application frame")
	ErrInitPending     = errors.New("endhost: reverse initiation already pending")
	ErrPayloadTooLarge = errors.New("endhost: payload too large for a frame")
)

// Transport emits a serialized IPv4 packet into the network.
type Transport func(pkt []byte) error

// Config configures a Host.
type Config struct {
	// Addr is the host's IPv4 address. Required.
	Addr netip.Addr
	// Transport sends packets. Required.
	Transport Transport
	// Identity is the host's long-term e2e key pair; required for
	// receiving forward conversations and for reverse initiation.
	Identity *e2e.Identity
	// Clock supplies time (virtual under netem). Defaults to time.Now.
	Clock func() time.Time
	// Rand supplies entropy. Defaults to crypto/rand.Reader.
	Rand io.Reader
	// OnData delivers received application data: peer is the real remote
	// address (never the anycast).
	OnData func(peer netip.Addr, data []byte)
	// ServeOffload makes this (customer) host answer offloaded key-setup
	// requests on the neutralizer's behalf (§3.2).
	ServeOffload bool
	// AnycastForOffload is the service address used as the source of
	// offload responses so the source sees them come from the service.
	AnycastForOffload netip.Addr
	// ReturnFlags are shim flags applied to outgoing Return packets
	// (e.g. shim.FlagDynamicAddr or shim.FlagNoAnonymize for §3.4).
	ReturnFlags uint8
}

// Stats counts host-level protocol events.
type Stats struct {
	SetupsStarted   uint64
	SetupsCompleted uint64
	DataSent        uint64
	DataReceived    uint64
	GrantsApplied   uint64
	GrantsReturned  uint64
	OffloadsServed  uint64
	ReverseInits    uint64
	FramesRejected  uint64
}

// conduit is the client's credential with one neutralizer service:
// (nonce, Ks, epoch), plus the previous pair so in-flight replies keyed
// under a just-retired nonce still decrypt.
type conduit struct {
	neut        netip.Addr
	nonce       keys.Nonce
	key         aesutil.Key
	epoch       keys.Epoch
	provisional bool // still protected only by the one-time short RSA key
	prevNonce   keys.Nonce
	prevKey     aesutil.Key
	hasPrev     bool
}

// conv is one conversation with a remote peer.
type conv struct {
	peer    netip.Addr
	neut    netip.Addr // service address to send through
	nonce   keys.Nonce // last nonce seen from/used toward this peer
	epoch   keys.Epoch
	sess    *e2e.Session
	peerPub e2e.PublicKey // set on the initiating side before first send
	// pendingGrant is a grant received in a Delivered packet that must be
	// returned to the initiator in the next reply (customer side).
	pendingGrant      shim.Grant
	pendingGrantEpoch keys.Epoch
	hasPendingGrant   bool
	customerSide      bool
}

// Host is an end host speaking the neutralizer protocol.
type Host struct {
	cfg   Config
	stats Stats

	conduits     map[netip.Addr]*conduit             // by neutralizer service addr
	pendingSetup map[netip.Addr]*lightrsa.PrivateKey // by neutralizer service addr
	convs        map[netip.Addr]*conv                // by peer address
	pendingInit  map[netip.Addr][]byte               // reverse-init queued first payload
	pendingPub   map[netip.Addr]e2e.PublicKey        // reverse-init peer public keys
}

// NewHost creates a Host.
func NewHost(cfg Config) (*Host, error) {
	if !cfg.Addr.Is4() {
		return nil, errors.New("endhost: Config.Addr must be IPv4")
	}
	if cfg.Transport == nil {
		return nil, errors.New("endhost: Config.Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	return &Host{
		cfg:          cfg,
		conduits:     make(map[netip.Addr]*conduit),
		pendingSetup: make(map[netip.Addr]*lightrsa.PrivateKey),
		convs:        make(map[netip.Addr]*conv),
		pendingInit:  make(map[netip.Addr][]byte),
		pendingPub:   make(map[netip.Addr]e2e.PublicKey),
	}, nil
}

// Stats returns a snapshot of the host's counters.
func (h *Host) Stats() Stats { return h.stats }

// Addr returns the host's address.
func (h *Host) Addr() netip.Addr { return h.cfg.Addr }

// Identity returns the host's published public key (the zero PublicKey if
// the host has no identity).
func (h *Host) Identity() e2e.PublicKey {
	if h.cfg.Identity == nil {
		return e2e.PublicKey{}
	}
	return h.cfg.Identity.Public()
}

// SetOnData replaces the application data callback.
func (h *Host) SetOnData(fn func(peer netip.Addr, data []byte)) { h.cfg.OnData = fn }

// --- outside-host (client) API -----------------------------------------

// Setup begins Figure 2(a): generate a one-time short RSA key and send it
// to the neutralizer service at neut.
func (h *Host) Setup(neut netip.Addr) error {
	if _, ok := h.pendingSetup[neut]; ok {
		return ErrSetupPending
	}
	priv, err := lightrsa.GenerateKey(h.cfg.Rand, lightrsa.DefaultBits)
	if err != nil {
		return fmt.Errorf("endhost: one-time key: %w", err)
	}
	h.pendingSetup[neut] = priv
	h.stats.SetupsStarted++
	sh := &shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: priv.PublicKey.Marshal()}
	return h.sendShim(neut, 0, sh, nil)
}

// HasConduit reports whether key setup with neut has completed.
func (h *Host) HasConduit(neut netip.Addr) bool {
	_, ok := h.conduits[neut]
	return ok
}

// ConduitProvisional reports whether the conduit still relies on the
// short-RSA-protected key (no grant applied yet).
func (h *Host) ConduitProvisional(neut netip.Addr) bool {
	c, ok := h.conduits[neut]
	return ok && c.provisional
}

// Connect registers the intent to talk to peer (a customer of the
// neutralizer at neut) using the peer's published public key, as obtained
// from DNS bootstrap (§3.1).
func (h *Host) Connect(neut, peer netip.Addr, peerPub e2e.PublicKey) error {
	if _, ok := h.conduits[neut]; !ok {
		if _, pending := h.pendingSetup[neut]; !pending {
			return ErrNoConduit
		}
	}
	c := h.convs[peer]
	if c == nil {
		c = &conv{peer: peer, neut: neut}
		h.convs[peer] = c
	}
	c.neut = neut
	c.peerPub = peerPub
	return nil
}

// Send transmits application data to peer through the conversation's
// neutralizer. On the outside host the destination address is encrypted
// under the conduit key; on the customer side the packet takes the
// Return path.
func (h *Host) Send(peer netip.Addr, data []byte) error {
	c, ok := h.convs[peer]
	if !ok {
		return ErrNoConversation
	}
	if len(data) > 0xFFFF-64 {
		return ErrPayloadTooLarge
	}
	if c.customerSide {
		return h.sendReturn(c, data)
	}
	return h.sendForward(c, data)
}

func (h *Host) sendForward(c *conv, data []byte) error {
	cd, ok := h.conduits[c.neut]
	if !ok {
		return ErrNotReady
	}
	var salt [8]byte
	if _, err := io.ReadFull(h.cfg.Rand, salt[:]); err != nil {
		return err
	}
	blk, err := aesutil.EncryptAddr(cd.key, c.peer, salt)
	if err != nil {
		return err
	}
	var fl uint8
	if cd.provisional {
		fl |= shim.FlagKeyRequest
	}
	frame, err := h.buildFrame(c, data)
	if err != nil {
		return err
	}
	sh := &shim.Header{
		Type: shim.TypeData, Flags: fl,
		Epoch: cd.epoch, Nonce: cd.nonce, HiddenAddr: blk,
	}
	if err := h.sendShim(c.neut, 0, sh, frame); err != nil {
		return err
	}
	h.stats.DataSent++
	return nil
}

func (h *Host) sendReturn(c *conv, data []byte) error {
	frame, err := h.buildFrame(c, data)
	if err != nil {
		return err
	}
	sh := &shim.Header{
		Type: shim.TypeReturn, Flags: h.cfg.ReturnFlags,
		Epoch: c.epoch, Nonce: c.nonce, ClearAddr: c.peer,
	}
	if err := h.sendShim(c.neut, 0, sh, frame); err != nil {
		return err
	}
	h.stats.DataSent++
	return nil
}

// --- customer-host API ---------------------------------------------------

// InitiateTo starts a §3.3 reverse-direction conversation from a customer
// host to an outside peer: fetch (nonce, Ks) from the neutralizer in
// plaintext, then send firstData with the key material encrypted under
// the peer's public key.
func (h *Host) InitiateTo(neut, peer netip.Addr, peerPub e2e.PublicKey, firstData []byte) error {
	if _, ok := h.pendingInit[peer]; ok {
		return ErrInitPending
	}
	h.pendingInit[peer] = append([]byte(nil), firstData...)
	h.pendingPub[peer] = peerPub
	c := h.convs[peer]
	if c == nil {
		c = &conv{peer: peer, neut: neut, customerSide: true}
		h.convs[peer] = c
	}
	c.neut = neut
	c.customerSide = true
	sh := &shim.Header{Type: shim.TypeKeyFetchRequest, ClearAddr: peer}
	return h.sendShim(neut, 0, sh, nil)
}

// --- packet input --------------------------------------------------------

// HandlePacket feeds one received serialized IPv4 packet into the host.
// Unknown or undecodable packets are counted and dropped, mirroring how a
// real stack ignores noise.
func (h *Host) HandlePacket(now time.Time, pkt []byte) {
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		h.stats.FramesRejected++
		return
	}
	if ip.Protocol != wire.ProtoShim {
		return // not ours
	}
	var sh shim.Header
	if err := sh.DecodeFromBytes(ip.Payload()); err != nil {
		h.stats.FramesRejected++
		return
	}
	switch sh.Type {
	case shim.TypeKeySetupResponse:
		h.onSetupResponse(&ip, &sh)
	case shim.TypeKeySetupRequest:
		if sh.Flags&shim.FlagOffloaded != 0 && h.cfg.ServeOffload {
			h.onOffloadRequest(&ip, &sh)
		}
	case shim.TypeDelivered:
		h.onDelivered(&ip, &sh)
	case shim.TypeReturnDelivered:
		h.onReturnDelivered(&ip, &sh)
	case shim.TypeKeyFetchResponse:
		h.onKeyFetchResponse(&ip, &sh)
	default:
		h.stats.FramesRejected++
	}
}

// onSetupResponse completes Figure 2(a) on the client.
func (h *Host) onSetupResponse(ip *wire.IPv4, sh *shim.Header) {
	neut := ip.Src
	priv, ok := h.pendingSetup[neut]
	if !ok {
		h.stats.FramesRejected++
		return
	}
	pt, err := priv.Decrypt(sh.Ciphertext)
	if err != nil {
		h.stats.FramesRejected++
		return
	}
	nonce, ks, err := shim.DecodeSetupPlaintext(pt)
	if err != nil {
		h.stats.FramesRejected++
		return
	}
	delete(h.pendingSetup, neut)
	h.conduits[neut] = &conduit{
		neut: neut, nonce: nonce, key: ks, epoch: sh.Epoch, provisional: true,
	}
	h.stats.SetupsCompleted++
}

// onOffloadRequest performs the neutralizer's RSA encryption on its
// behalf (§3.2) and answers the source directly, with the service address
// as the visible source.
func (h *Host) onOffloadRequest(ip *wire.IPv4, sh *shim.Header) {
	pub, _, err := lightrsa.UnmarshalPublicKey(sh.PublicKey)
	if err != nil {
		h.stats.FramesRejected++
		return
	}
	ct, err := pub.Encrypt(h.cfg.Rand, shim.EncodeSetupPlaintext(sh.Grant.Nonce, sh.Grant.Key))
	if err != nil {
		h.stats.FramesRejected++
		return
	}
	src := h.cfg.AnycastForOffload
	if !src.IsValid() {
		src = h.cfg.Addr
	}
	resp := &shim.Header{Type: shim.TypeKeySetupResponse, Epoch: sh.Epoch, Ciphertext: ct}
	pkt, err := shim.BuildPacket(src, ip.Src, 0, resp, nil)
	if err != nil {
		return
	}
	if err := h.cfg.Transport(pkt); err != nil {
		return
	}
	h.stats.OffloadsServed++
}

// onDelivered handles a forward-path packet arriving at a customer.
func (h *Host) onDelivered(ip *wire.IPv4, sh *shim.Header) {
	if ip.Dst != h.cfg.Addr {
		h.stats.FramesRejected++
		return
	}
	peer := ip.Src
	c := h.convs[peer]
	if c == nil {
		c = &conv{peer: peer, customerSide: true}
		h.convs[peer] = c
	}
	c.customerSide = true
	c.neut = sh.ClearAddr // the service address for returns
	c.nonce = sh.Nonce
	c.epoch = sh.Epoch
	if sh.HasGrant() {
		// The grant is the *initiator's* refresh material; return it under
		// e2e cover with the next reply.
		c.pendingGrant = sh.Grant
		c.pendingGrantEpoch = sh.Epoch
		c.hasPendingGrant = true
	}
	data, err := h.openFrame(c, sh.Payload())
	if err != nil {
		h.stats.FramesRejected++
		return
	}
	h.stats.DataReceived++
	if h.cfg.OnData != nil && data != nil {
		h.cfg.OnData(peer, data)
	}
}

// onReturnDelivered handles a return-path packet arriving at an outside
// host: locate Ks by (neutralizer address, nonce), decrypt the hidden
// source, then open the frame. If the nonce is unknown, this may be a
// reverse-direction first packet: try the identity key (§3.3).
func (h *Host) onReturnDelivered(ip *wire.IPv4, sh *shim.Header) {
	if ip.Dst != h.cfg.Addr {
		h.stats.FramesRejected++
		return
	}
	neut := ip.Src // anycast (or dynamic) service address
	if cd, ok := h.conduits[neut]; ok {
		var key aesutil.Key
		matched := false
		switch sh.Nonce {
		case cd.nonce:
			key, matched = cd.key, true
		case cd.prevNonce:
			if cd.hasPrev {
				key, matched = cd.prevKey, true
			}
		}
		if matched {
			peer, _, err := aesutil.DecryptAddr(key, sh.HiddenAddr)
			if err != nil {
				h.stats.FramesRejected++
				return
			}
			c := h.convs[peer]
			if c == nil {
				c = &conv{peer: peer, neut: neut}
				h.convs[peer] = c
			}
			data, err := h.openFrame(c, sh.Payload())
			if err != nil {
				h.stats.FramesRejected++
				return
			}
			h.stats.DataReceived++
			if h.cfg.OnData != nil && data != nil {
				h.cfg.OnData(peer, data)
			}
			return
		}
	}
	// Unknown nonce: §3.3 — attempt identity decryption of a reverse-
	// direction first packet.
	if h.cfg.Identity == nil {
		h.stats.FramesRejected++
		return
	}
	if err := h.acceptReverseInit(neut, sh); err != nil {
		h.stats.FramesRejected++
	}
}

// onKeyFetchResponse completes a reverse initiation on the customer side.
func (h *Host) onKeyFetchResponse(ip *wire.IPv4, sh *shim.Header) {
	// Match the response to a pending initiation (one at a time per peer;
	// the fetch carries no correlation token — acceptable because fetches
	// stay inside the friendly domain).
	for peer, firstData := range h.pendingInit {
		c := h.convs[peer]
		if c == nil || c.neut != ip.Src {
			continue
		}
		delete(h.pendingInit, peer)
		pub := h.pendingPub[peer]
		delete(h.pendingPub, peer)
		c.nonce = sh.Grant.Nonce
		c.epoch = sh.Epoch
		if err := h.sendReverseFirst(c, pub, sh.Grant, sh.Epoch, firstData); err == nil {
			h.stats.ReverseInits++
		}
		return
	}
	h.stats.FramesRejected++
}

func (h *Host) sendShim(dst netip.Addr, tos uint8, sh *shim.Header, payload []byte) error {
	pkt, err := shim.BuildPacket(h.cfg.Addr, dst, tos, sh, payload)
	if err != nil {
		return err
	}
	return h.cfg.Transport(pkt)
}
