package core

import (
	"fmt"
	"net/netip"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// shimHeadroom is the default space reserved in front of a serialize
// buffer: the IP header, the shim header, and a typical shim body. emit
// reserves the exact encoded size when a message (e.g. an RSA key-setup
// blob) needs more, so any one buffer grows at most once per high-water
// mark and keeps its capacity across reuse.
const shimHeadroom = wire.IPv4HeaderLen + shim.HeaderLen + 64

// Scratch holds the per-worker reusable state of the zero-allocation
// processing path: decoded-layer structs, the session-key derivation and
// AES working state, a ring of output packet buffers, and a bounded cache
// of expanded session keys (see sessionCache) that lets the packets of an
// established flow skip the derivation and the AES key expansion. The
// cache holds nothing a packet and KM do not determine: a fresh Scratch,
// or another worker's, produces the same bytes a warm one does, only
// slower. A Scratch is NOT safe for concurrent use; give each goroutine
// its own (the neutralizer itself is stateless and freely shared — that
// is the whole point of the design). It may serve several Neutralizers in
// turn; the cache starts over whenever the master-key schedule changes.
type Scratch struct {
	kw   keys.Work
	ek   aesutil.ExpandedKey // the schedule a cache miss derives into
	salt [8]byte

	ip  wire.IPv4
	sh  shim.Header
	out shim.Header

	bufs []*wire.SerializeBuffer
	nbuf int
	outs []Outgoing

	sess sessionCache // last: its 10 KB of tags stay out from between the fields every packet touches
}

// NewScratch returns an empty scratch. Buffers are grown on demand and
// retained, so steady-state processing performs no allocation.
func NewScratch() *Scratch { return &Scratch{} }

// CryptoEpochStats reports the epoch-cache hit/miss counts of session-key
// derivations run through this scratch. Owner-only, like the scratch
// itself: read it from the goroutine that processes with the scratch, or
// at a quiescent point.
func (s *Scratch) CryptoEpochStats() (hits, misses uint64) {
	return s.kw.EpochCacheStats()
}

// SessionCacheStats reports the outcomes of this scratch's session-key
// cache. Owner-only, like CryptoEpochStats.
func (s *Scratch) SessionCacheStats() SessionCacheStats { return s.sess.stats }

// Reset recycles every output buffer. Outgoing values returned by
// ProcessScratch calls since the previous Reset become invalid.
func (s *Scratch) Reset() {
	s.nbuf = 0
	s.outs = s.outs[:0]
}

// nextBuf returns a serialize buffer from the ring cleared to the given
// headroom, growing the ring on first use at each depth.
func (s *Scratch) nextBuf(headroom int) *wire.SerializeBuffer {
	if s.nbuf == len(s.bufs) {
		s.bufs = append(s.bufs, wire.NewSerializeBuffer(shimHeadroom, 128))
	}
	b := s.bufs[s.nbuf]
	s.nbuf++
	b.Clear(headroom)
	return b
}

// emit serializes IP(src→dst, ToS preserved) | shim | payload into the
// next ring buffer and appends it to the scratch's outputs. Preserving
// the ToS octet verbatim is the §3.4 DiffServ guarantee.
func (s *Scratch) emit(src, dst netip.Addr, tos uint8, sh *shim.Header, payload []byte) error {
	buf := s.nextBuf(max(shimHeadroom, wire.IPv4HeaderLen+sh.EncodedLen()))
	buf.PushPayload(payload)
	if err := sh.SerializeTo(buf); err != nil {
		s.nbuf-- // buffer unused
		return err
	}
	ip := wire.IPv4{TOS: tos, TTL: wire.MaxTTL, Protocol: wire.ProtoShim, Src: src, Dst: dst}
	if err := ip.SerializeTo(buf); err != nil {
		s.nbuf--
		return err
	}
	s.outs = append(s.outs, Outgoing{Pkt: buf.Bytes()})
	return nil
}

// ProcessScratch handles one serialized IPv4 shim packet addressed to
// the neutralizer and returns the packets to emit. Non-shim packets
// yield ErrNotShim (the caller forwards them normally — the neutralizer
// service is optional, §3.4).
//
// The working state is the caller's: the data-plane paths (TypeData,
// TypeReturn) run with zero heap allocations per packet. Returned
// Outgoing values alias scratch-owned buffers and remain valid only
// until the scratch's next Reset; callers that need the packets longer
// must copy them.
//
// Outputs accumulate in the scratch between Resets, so a batch loop can
// Reset once, process many packets, and transmit all outputs together.
// The returned slice covers only this call's outputs.
func (n *Neutralizer) ProcessScratch(s *Scratch, pkt []byte) ([]Outgoing, error) {
	start := len(s.outs)
	if err := s.ip.DecodeFromBytes(pkt); err != nil {
		n.stats.DropMalformed.Add(1)
		return nil, fmt.Errorf("core: %w", err)
	}
	if s.ip.Protocol != wire.ProtoShim {
		return nil, ErrNotShim
	}
	if err := s.sh.DecodeFromBytes(s.ip.Payload()); err != nil {
		n.stats.DropMalformed.Add(1)
		return nil, fmt.Errorf("core: %w", err)
	}
	var err error
	switch s.sh.Type {
	case shim.TypeKeySetupRequest:
		err = n.processKeySetup(s, &s.ip, &s.sh)
	case shim.TypeData:
		err = n.processData(s, &s.ip, &s.sh)
	case shim.TypeReturn:
		err = n.processReturn(s, &s.ip, &s.sh)
	case shim.TypeKeyFetchRequest:
		err = n.processKeyFetch(s, &s.ip, &s.sh)
	case shim.TypeAltData:
		err = n.processAltData(s, &s.ip, &s.sh)
	default:
		// A well-formed shim of a type only end hosts consume: counted, so
		// every shim input moves exactly one served or drop counter.
		n.stats.DropMalformed.Add(1)
		err = ErrUnhandledType
	}
	if err != nil {
		return nil, err
	}
	return s.outs[start:], nil
}
