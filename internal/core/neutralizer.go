// Package core implements the paper's primary contribution: the
// neutralizer, an efficient and stateless service at the border of a
// non-discriminatory ISP that hides the ISP's customers' addresses from
// other ISPs.
//
// Statelessness is the load-bearing property. The neutralizer keeps no
// per-source or per-flow tables: every session key can be recomputed from
// the packet itself as Ks = hash(KM, nonce, srcIP), so any replica sharing
// the master-key schedule can process any packet (the anycast property),
// a crashed replica loses nothing, and memory does not grow with load.
// The only optional state is the dynamic-address table of the §3.4 QoS
// remedy, which exists per explicitly-requested QoS flow, and monotonic
// counters.
//
// What a worker holds is a different matter. Each Scratch carries a
// bounded, fixed-size cache — at most 512 AES key schedules
// (aesutil.ExpandedKey) of 384 bytes each, under 200 KB when full — from
// (epoch, nonce, srcIP) to the schedule of Ks, so a packet of an
// established flow skips the derivation and the key expansion and pays
// one AES block operation; a flow's first packets expand the same kind of
// schedule in the scratch and run the same AES on it (the CPU's AES
// instructions on amd64: constant-time). Every value in the cache is a pure
// function of the packet and KM: it is never authoritative, a miss (or
// another worker, or a restarted one) recomputes the same bytes, and
// nothing enters it before the neutralizer has verified and served a
// packet of that session twice. The neutralizer is as stateless as the
// paper's; only the time a packet takes depends on where it lands. A
// worker's randomness is its own too: unless Config.Rand is set, salts and
// nonces come from a fast-key-erasure generator in the Scratch, AES-CTR on
// the same kind of schedule, so a miss runs on nothing but that one AES.
//
// Time is the other input. A data or return packet is served only if
// keyed under the epoch in force or the one before (keys.Epoch.Accepts):
// EpochAt of Config.Clock's reading (the emulator, the tests), or else the
// Scratch's keys.WallEpoch (the daemon; TestWallClockAcceptanceMatchesTimeNow,
// TestWallClockAcceptanceAcrossFarBoundary).
//
// A Neutralizer is transport-agnostic: ProcessScratch consumes one
// serialized IPv4 packet and returns the packets to emit. The same core
// runs inside the netem emulator, behind real UDP sockets
// (cmd/neutralizerd), and in the benchmark harness.
package core

import (
	"errors"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Errors returned by ProcessScratch.
var (
	ErrNotShim          = errors.New("core: packet is not a shim packet")
	ErrStaleEpoch       = errors.New("core: packet epoch outside acceptance window")
	ErrBadAddrBlock     = errors.New("core: hidden address block failed check")
	ErrNotCustomer      = errors.New("core: decrypted destination is not a customer")
	ErrNotFromCustomer  = errors.New("core: return packet source is not a customer")
	ErrBadSetup         = errors.New("core: malformed key-setup request")
	ErrNoAltIdentity    = errors.New("core: alternative mode not configured")
	ErrUnhandledType    = errors.New("core: shim type not handled by neutralizer")
	ErrDynPoolExhausted = errors.New("core: dynamic address pool exhausted")
)

// Config configures a Neutralizer.
type Config struct {
	// Schedule is the master-key schedule shared by all replicas of the
	// domain. Required.
	Schedule *keys.Schedule
	// Anycast is the neutralizer service address all customers publish.
	// Required.
	Anycast netip.Addr
	// IsCustomer reports whether an address belongs to this ISP's
	// customers (the set the neutralizer protects). Required.
	IsCustomer func(netip.Addr) bool
	// Clock supplies time (virtual in emulation). When nil, packets are
	// judged on the wall clock through each Scratch's keys.WallEpoch.
	Clock func() time.Time
	// Rand, when set, supplies every draw — nonces, salts, RSA padding —
	// in the order the packets ask for them, so a seeded reader replays a
	// run byte for byte. When nil each Scratch draws from its own
	// fast-key-erasure generator, keyed from crypto/rand.
	Rand io.Reader
	// Offload, when non-nil, delegates key-setup RSA encryptions to
	// willing customers (§3.2).
	Offload *OffloadPolicy
	// AltIdentity enables the §3.2 alternative design: sources encrypt
	// the destination under this (certified) key and the neutralizer pays
	// an RSA decryption per setup. Used by the A1 ablation.
	AltIdentity *lightrsa.PrivateKey
	// DynAddrPool, when valid, enables the §3.4 dynamic-address QoS
	// remedy; per-flow visible addresses are allocated from this prefix.
	DynAddrPool netip.Prefix
	// OnDynAlloc, if set, is invoked when a dynamic address is allocated
	// or released, so the hosting node can claim it for routing.
	OnDynAlloc func(addr netip.Addr, allocated bool)
}

// OffloadPolicy delegates key-setup encryption to customer helpers in
// round-robin order.
type OffloadPolicy struct {
	// Helpers are customer addresses willing to perform RSA encryptions
	// (the paper notes a destination like Google has the incentive).
	Helpers []netip.Addr
	next    uint64
}

func (o *OffloadPolicy) pick() (netip.Addr, bool) {
	if o == nil || len(o.Helpers) == 0 {
		return netip.Addr{}, false
	}
	i := atomic.AddUint64(&o.next, 1)
	return o.Helpers[i%uint64(len(o.Helpers))], true
}

// Stats are monotonic counters, safe to read concurrently.
type Stats struct {
	KeySetups         atomic.Uint64 // key-setup responses produced locally
	KeySetupsOffload  atomic.Uint64 // key-setups delegated to helpers
	AltSetups         atomic.Uint64 // alternative-mode setups (RSA decrypt)
	DataForwarded     atomic.Uint64 // forward-path data packets
	ReturnForwarded   atomic.Uint64 // return-path data packets
	GrantsStamped     atomic.Uint64 // fresh (nonce', Ks') grants issued
	KeyFetches        atomic.Uint64 // §3.3 customer key fetches
	DropStaleEpoch    atomic.Uint64
	DropBadAddrBlock  atomic.Uint64
	DropNotCustomer   atomic.Uint64
	DropMalformed     atomic.Uint64
	DropDynExhausted  atomic.Uint64 // return packets refused a §3.4 dynamic address
	DynAddrsAllocated atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of a Stats counter block, in
// plain uint64 form.
type StatsSnapshot struct {
	KeySetups         uint64
	KeySetupsOffload  uint64
	AltSetups         uint64
	DataForwarded     uint64
	ReturnForwarded   uint64
	GrantsStamped     uint64
	KeyFetches        uint64
	DropStaleEpoch    uint64
	DropBadAddrBlock  uint64
	DropNotCustomer   uint64
	DropMalformed     uint64
	DropDynExhausted  uint64
	DynAddrsAllocated uint64
}

// Snapshot atomically loads every counter.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		KeySetups:         s.KeySetups.Load(),
		KeySetupsOffload:  s.KeySetupsOffload.Load(),
		AltSetups:         s.AltSetups.Load(),
		DataForwarded:     s.DataForwarded.Load(),
		ReturnForwarded:   s.ReturnForwarded.Load(),
		GrantsStamped:     s.GrantsStamped.Load(),
		KeyFetches:        s.KeyFetches.Load(),
		DropStaleEpoch:    s.DropStaleEpoch.Load(),
		DropBadAddrBlock:  s.DropBadAddrBlock.Load(),
		DropNotCustomer:   s.DropNotCustomer.Load(),
		DropMalformed:     s.DropMalformed.Load(),
		DropDynExhausted:  s.DropDynExhausted.Load(),
		DynAddrsAllocated: s.DynAddrsAllocated.Load(),
	}
}

// Dropped is the total of all drop counters.
func (s StatsSnapshot) Dropped() uint64 {
	return s.DropStaleEpoch + s.DropBadAddrBlock + s.DropNotCustomer + s.DropMalformed + s.DropDynExhausted
}

// Neutralizer processes shim packets at an ISP border. Safe for
// concurrent use: the hot path reads only immutable configuration; the
// optional dynamic-address table has its own lock. When one Neutralizer
// is shared across goroutines and Config.Rand is set, that reader must be
// safe for concurrent use too (with Rand nil, each goroutine's Scratch
// draws from its own generator).
type Neutralizer struct {
	cfg   Config
	stats Stats

	dyn *dynTable
}

// dynTable is the §3.4 dynamic-address table. It is the one piece of
// neutralizer state that cannot be recomputed from the packet, so the
// replicas of a Pool must share one (NewPool hands every replica the same
// pointer): a flow keeps its address whichever replica serves it.
type dynTable struct {
	mu   sync.Mutex
	fwd  map[dynFlowKey]netip.Addr // (customer, peer) -> dynamic addr
	rev  map[netip.Addr]dynFlowKey
	next uint64 // pool offset of the last allocation
}

type dynFlowKey struct {
	customer netip.Addr
	peer     netip.Addr
}

// New creates a Neutralizer. It returns an error if required
// configuration is missing.
func New(cfg Config) (*Neutralizer, error) {
	if cfg.Schedule == nil {
		return nil, errors.New("core: Config.Schedule is required")
	}
	if !cfg.Anycast.Is4() {
		return nil, errors.New("core: Config.Anycast must be an IPv4 address")
	}
	if cfg.IsCustomer == nil {
		return nil, errors.New("core: Config.IsCustomer is required")
	}
	return &Neutralizer{cfg: cfg, dyn: &dynTable{
		fwd: make(map[dynFlowKey]netip.Addr),
		rev: make(map[netip.Addr]dynFlowKey),
	}}, nil
}

// Stats returns the counter block.
func (n *Neutralizer) Stats() *Stats { return &n.stats }

// epoch is the epoch in force: Config.Clock's, else the scratch's view.
func (n *Neutralizer) epoch(s *Scratch) keys.Epoch {
	if n.cfg.Clock == nil {
		return s.wall.Now(n.cfg.Schedule)
	}
	return n.cfg.Schedule.EpochAt(n.cfg.Clock())
}

// Outgoing is a packet the caller must transmit.
type Outgoing struct {
	Pkt []byte
}

// processKeySetup implements Figure 2(a): derive (nonce, Ks) for the
// source, RSA-encrypt them under the source's one-time public key, and
// reply — or delegate the encryption to a customer helper.
func (n *Neutralizer) processKeySetup(s *Scratch, ip *wire.IPv4, sh *shim.Header) error {
	pub, _, err := lightrsa.UnmarshalPublicKey(sh.PublicKey)
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return ErrBadSetup
	}
	epoch, g, err := n.grant(s, n.epoch(s), ip.Src)
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return ErrBadSetup
	}

	if helper, ok := n.cfg.Offload.pick(); ok {
		// §3.2 offload: stamp the plaintext grant into the request and
		// forward it to a willing customer, which performs the RSA
		// encryption and answers the source itself. The stamped grant
		// travels only inside the friendly domain.
		s.out = shim.Header{
			Type:      shim.TypeKeySetupRequest,
			Flags:     sh.Flags | shim.FlagOffloaded,
			Epoch:     epoch,
			PublicKey: sh.PublicKey,
			Grant:     g,
		}
		if err := s.emit(ip.Src, helper, ip.TOS, &s.out, nil); err != nil {
			return err
		}
		n.stats.KeySetupsOffload.Add(1)
		return nil
	}

	ct, err := pub.Encrypt(n.entropy(s), shim.EncodeSetupPlaintext(g.Nonce, g.Key))
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return ErrBadSetup
	}
	s.out = shim.Header{Type: shim.TypeKeySetupResponse, Epoch: epoch, Ciphertext: ct}
	if err := s.emit(n.cfg.Anycast, ip.Src, ip.TOS, &s.out, nil); err != nil {
		return err
	}
	n.stats.KeySetups.Add(1)
	return nil
}

// grant draws a fresh nonce and derives its session key for src under
// epoch, the one in force: the (nonce, Ks) a key setup, a key fetch and a
// key request each hand out.
func (n *Neutralizer) grant(s *Scratch, epoch keys.Epoch, src netip.Addr) (keys.Epoch, shim.Grant, error) {
	nonce, err := keys.NewNonce(n.entropy(s))
	if err != nil {
		return 0, shim.Grant{}, err
	}
	ks, err := n.cfg.Schedule.SessionKeyInto(&s.kw, epoch, nonce, src)
	return epoch, shim.Grant{Nonce: nonce, Key: ks}, err
}

// processData implements the forward path (Figure 2(b), packets 3→4):
// recompute Ks from the packet alone (or find its schedule in the
// scratch's cache), decrypt the hidden destination, verify it is a
// customer, and forward with the shim rewritten — stamping a fresh key
// grant if requested. Zero allocations on the success path, but for the
// schedule a cache way allocates the first time a flow is admitted to it:
// a miss derives the session key under the cached epoch cipher and
// expands it into a schedule the scratch owns.
func (n *Neutralizer) processData(s *Scratch, ip *wire.IPv4, sh *shim.Header) error {
	cur := n.epoch(s)
	if !cur.Accepts(sh.Epoch) {
		n.stats.DropStaleEpoch.Add(1)
		return ErrStaleEpoch
	}
	ek, err := n.sessionKey(s, sh.Epoch, sh.Nonce, ip.Src)
	if err != nil {
		return err
	}
	dst, _, ok := ek.DecryptAddrX(sh.HiddenAddr)
	if !ok {
		n.stats.DropBadAddrBlock.Add(1)
		return ErrBadAddrBlock
	}
	if !n.cfg.IsCustomer(dst) {
		n.stats.DropNotCustomer.Add(1)
		return ErrNotCustomer
	}
	out := s.relay(shim.TypeDelivered, sh)
	out.ClearAddr = n.cfg.Anycast
	if sh.Flags&shim.FlagKeyRequest != 0 {
		// Stamp a fresh grant bound to the same outside source under the
		// *current* epoch; the destination returns it end-to-end
		// encrypted and the source retires the short-RSA-protected key.
		out.Flags |= shim.FlagGrant
		if out.Epoch, out.Grant, err = n.grant(s, cur, ip.Src); err != nil {
			return err
		}
		n.stats.GrantsStamped.Add(1)
	}
	if err := s.emit(ip.Src, dst, ip.TOS, out, sh.Payload()); err != nil {
		return err
	}
	s.admitSession(ek)
	n.stats.DataForwarded.Add(1)
	return nil
}

// processReturn implements the return path (Figure 2(b), packets 5→6):
// encrypt the customer's address under Ks (recomputed from the initiator
// address carried in the shim, or found in the scratch's cache: the same
// session as the forward path, the other half of the schedule) and
// substitute the anycast address — or a per-flow dynamic address, or
// nothing, per the QoS flags.
func (n *Neutralizer) processReturn(s *Scratch, ip *wire.IPv4, sh *shim.Header) error {
	if !n.cfg.IsCustomer(ip.Src) {
		n.stats.DropNotCustomer.Add(1)
		return ErrNotFromCustomer
	}
	if !n.epoch(s).Accepts(sh.Epoch) {
		n.stats.DropStaleEpoch.Add(1)
		return ErrStaleEpoch
	}
	initiator := sh.ClearAddr
	ek, err := n.sessionKey(s, sh.Epoch, sh.Nonce, initiator)
	if err != nil {
		return err
	}
	if _, err := io.ReadFull(n.entropy(s), s.salt[:]); err != nil {
		return err
	}
	hidden, _ := ek.EncryptAddrX(ip.Src, s.salt) // ip.Src came off an IPv4 header
	out := s.relay(shim.TypeReturnDelivered, sh)
	out.HiddenAddr = hidden
	visibleSrc := n.cfg.Anycast
	switch {
	case sh.Flags&shim.FlagNoAnonymize != 0:
		// §3.4: a customer that purchased guaranteed service may opt out
		// of anonymization entirely.
		visibleSrc = ip.Src
	case sh.Flags&shim.FlagDynamicAddr != 0:
		a, err := n.dynAddrFor(ip.Src, initiator)
		if err != nil {
			n.stats.DropDynExhausted.Add(1)
			return err
		}
		visibleSrc = a
	}
	if err := s.emit(visibleSrc, initiator, ip.TOS, out, sh.Payload()); err != nil {
		return err
	}
	s.admitSession(ek)
	n.stats.ReturnForwarded.Add(1)
	return nil
}

// processKeyFetch implements §3.3: a customer initiating a connection to
// an outside destination requests (nonce, Ks) in plaintext — the exchange
// never leaves the friendly domain.
func (n *Neutralizer) processKeyFetch(s *Scratch, ip *wire.IPv4, sh *shim.Header) error {
	if !n.cfg.IsCustomer(ip.Src) {
		n.stats.DropNotCustomer.Add(1)
		return ErrNotFromCustomer
	}
	epoch, g, err := n.grant(s, n.epoch(s), sh.ClearAddr)
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return err
	}
	s.out = shim.Header{Type: shim.TypeKeyFetchResponse, Epoch: epoch, Nonce: g.Nonce, Grant: g}
	if err := s.emit(n.cfg.Anycast, ip.Src, ip.TOS, &s.out, nil); err != nil {
		return err
	}
	n.stats.KeyFetches.Add(1)
	return nil
}

// processAltData implements the §3.2 alternative the paper rejected: the
// source encrypts the destination under the neutralizer's certified
// public key, saving one RTT but costing the neutralizer a private-key
// decryption per setup that cannot be offloaded. Kept for the A1
// ablation benchmark.
func (n *Neutralizer) processAltData(s *Scratch, ip *wire.IPv4, sh *shim.Header) error {
	if n.cfg.AltIdentity == nil {
		n.stats.DropMalformed.Add(1) // as ErrUnhandledType: not served here
		return ErrNoAltIdentity
	}
	pt, err := n.cfg.AltIdentity.Decrypt(sh.Ciphertext)
	if err != nil || len(pt) < 4 {
		n.stats.DropBadAddrBlock.Add(1)
		return ErrBadAddrBlock
	}
	dst := netip.AddrFrom4([4]byte(pt[:4]))
	if !n.cfg.IsCustomer(dst) {
		n.stats.DropNotCustomer.Add(1)
		return ErrNotCustomer
	}
	out := s.relay(shim.TypeDelivered, sh)
	out.ClearAddr = n.cfg.Anycast
	if err := s.emit(ip.Src, dst, ip.TOS, out, sh.Payload()); err != nil {
		return err
	}
	n.stats.AltSetups.Add(1)
	return nil
}

// dynAddrFor returns the stable dynamic address for a (customer, peer)
// flow, allocating from the pool on first use (§3.4 QoS remedy).
func (n *Neutralizer) dynAddrFor(customer, peer netip.Addr) (netip.Addr, error) {
	if !n.cfg.DynAddrPool.IsValid() {
		return netip.Addr{}, ErrDynPoolExhausted
	}
	key := dynFlowKey{customer: customer, peer: peer}
	d := n.dyn
	d.mu.Lock()
	defer d.mu.Unlock()
	if a, ok := d.fwd[key]; ok {
		return a, nil
	}
	// Offsets 1..usable are allocatable (network and broadcast excluded).
	// A cursor sweeps them and wraps, so an address released behind it is
	// found again; the pool is exhausted only when every one is live.
	var usable uint64
	if hostBits := 32 - n.cfg.DynAddrPool.Bits(); hostBits >= 2 {
		usable = 1<<hostBits - 2
	}
	if uint64(len(d.rev)) >= usable {
		return netip.Addr{}, ErrDynPoolExhausted
	}
	for {
		d.next = d.next%usable + 1
		a := addAddrOffset(n.cfg.DynAddrPool.Addr(), d.next)
		if _, used := d.rev[a]; used {
			continue
		}
		d.fwd[key] = a
		d.rev[a] = key
		n.stats.DynAddrsAllocated.Add(1)
		if n.cfg.OnDynAlloc != nil {
			n.cfg.OnDynAlloc(a, true)
		}
		return a, nil
	}
}

// DynFlowOf resolves a dynamic address back to its (customer, peer) flow.
// The discriminatory ISP cannot do this — only the neutralizer can.
func (n *Neutralizer) DynFlowOf(a netip.Addr) (customer, peer netip.Addr, ok bool) {
	n.dyn.mu.Lock()
	defer n.dyn.mu.Unlock()
	k, ok := n.dyn.rev[a]
	return k.customer, k.peer, ok
}

// ReleaseDynAddr releases a dynamic address when a QoS session ends.
func (n *Neutralizer) ReleaseDynAddr(a netip.Addr) {
	d := n.dyn
	d.mu.Lock()
	k, ok := d.rev[a]
	if ok {
		delete(d.rev, a)
		delete(d.fwd, k)
	}
	d.mu.Unlock()
	if ok && n.cfg.OnDynAlloc != nil {
		n.cfg.OnDynAlloc(a, false)
	}
}

// DynAddrCount reports live dynamic-address allocations (state that
// exists only for explicitly-requested QoS flows).
func (n *Neutralizer) DynAddrCount() int {
	n.dyn.mu.Lock()
	defer n.dyn.mu.Unlock()
	return len(n.dyn.fwd)
}

func addAddrOffset(base netip.Addr, off uint64) netip.Addr {
	b := base.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	v += uint32(off)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// VanillaForward is the baseline the paper compares against: plain IP
// forwarding work (validate header, decrement TTL, repair checksum) with
// no neutralization. Used by the E3 benchmark.
func VanillaForward(pkt []byte) error {
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		return err
	}
	alive, err := wire.DecrementTTL(pkt)
	if err != nil {
		return err
	}
	if !alive {
		return errors.New("core: ttl exhausted")
	}
	return nil
}
