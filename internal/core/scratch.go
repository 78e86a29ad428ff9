package core

import (
	"crypto/rand"
	"io"
	"net/netip"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Scratch holds the per-worker reusable state of the zero-allocation
// processing path: decoded-layer structs, the session-key derivation and
// AES working state, a ring of output packet buffers, and a bounded cache
// of session-key schedules (see sessionCache) that lets the packets of an
// established flow skip the derivation and the AES key expansion. The
// cache holds nothing a packet and KM do not determine: a fresh Scratch,
// or another worker's, produces the same bytes a warm one does, only
// slower. A Scratch is NOT safe for concurrent use; give each goroutine
// its own (the neutralizer itself is stateless and freely shared — that
// is the whole point of the design). It may serve several Neutralizers in
// turn; the cache starts over whenever the master-key schedule changes.
type Scratch struct {
	kw    keys.Work
	wall  keys.WallEpoch      // the epoch in force when Config.Clock is nil
	ek    aesutil.ExpandedKey // a cache miss expands the packet's session key here
	probe sessProbe           // and leaves what admitting it needs here
	salt  [8]byte
	rng   fkeRand // the draws' source when Config.Rand is nil

	ip  wire.IPv4
	sh  shim.Header
	out shim.Header

	bufs [][]byte // output ring; each keeps its capacity across Resets
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
// cache. Unlike the rest of the scratch, any goroutine may call it.
func (s *Scratch) SessionCacheStats() SessionCacheStats {
	c := &s.sess
	return SessionCacheStats{c.hits.Load(), c.misses.Load(), c.admissions.Load(), c.evictions.Load()}
}

// fkeRand is a fast-key-erasure generator (Bernstein, 2017): AES-128-CTR
// under a key of its own, taken from crypto/rand at the first draw. A
// refill encrypts counters 0…31 and re-keys the schedule from the first
// block, so the key that made the buffer is gone; the other 496 bytes are
// handed out, and each is zeroed once handed out. Nothing left in memory
// recovers a past draw. Never fails, never allocates; owner-only, like the
// Scratch it lives in.
type fkeRand struct {
	ek   aesutil.ExpandedKey
	buf  [32 * aesutil.BlockSize]byte
	next int // buf[next:] is not handed out yet; 0 before the first refill
}

func (g *fkeRand) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if g.next == 0 || g.next == len(g.buf) {
			g.refill()
		}
		c := copy(p[n:], g.buf[g.next:])
		clear(g.buf[g.next : g.next+c])
		g.next += c
		n += c
	}
	return len(p), nil
}

func (g *fkeRand) refill() {
	if g.next == 0 {
		var seed aesutil.Key
		_, _ = rand.Read(seed[:]) // crypto/rand does not return errors: it crashes the program
		g.ek.Expand(seed)
	}
	for i := 0; i < len(g.buf); i += aesutil.BlockSize {
		blk := (*[aesutil.BlockSize]byte)(g.buf[i:])
		*blk = [aesutil.BlockSize]byte{15: byte(i / aesutil.BlockSize)}
		g.ek.EncryptBlock(blk, blk)
	}
	g.ek.Expand(aesutil.Key(g.buf[:aesutil.BlockSize]))
	clear(g.buf[:aesutil.BlockSize])
	g.next = aesutil.BlockSize
}

// entropy is the source of every draw the neutralizer makes — salts,
// nonces, RSA padding: Config.Rand when it is set (the sims' and the
// tests' seeded streams, read in the order the packets ask), else the
// scratch's own generator.
func (n *Neutralizer) entropy(s *Scratch) io.Reader {
	if n.cfg.Rand != nil {
		return n.cfg.Rand
	}
	return &s.rng
}

// Reset recycles every output buffer. Outgoing values returned by
// ProcessScratch calls since the previous Reset become invalid.
func (s *Scratch) Reset() {
	s.nbuf = 0
	s.outs = s.outs[:0]
}

// emit writes IP(src→dst, ToS preserved) | shim | payload into the next
// ring buffer and appends it to the scratch's outputs: the one place an
// outgoing packet is written, whatever its shape. A buffer grows only when
// a packet exceeds everything it has carried before.
func (s *Scratch) emit(src, dst netip.Addr, tos uint8, sh *shim.Header, payload []byte) error {
	if s.nbuf == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	pkt, err := shim.AppendPacket(s.bufs[s.nbuf][:0], src, dst, tos, sh, payload)
	if err != nil {
		return err
	}
	s.bufs[s.nbuf] = pkt
	s.nbuf++
	s.outs = append(s.outs, Outgoing{Pkt: pkt})
	return nil
}

// relay readies s.out as the header of a relayed data packet: the fixed
// fields of the one that came in under a new type, no flags. The caller
// sets the one body field the type carries; what earlier packets left in
// the others is never read (shim.Header.Put), so the data plane does not
// pay for clearing a header's worth of key-setup fields per packet.
func (s *Scratch) relay(t shim.Type, in *shim.Header) *shim.Header {
	out := &s.out
	out.Type, out.Flags, out.InnerProto, out.Epoch, out.Nonce = t, 0, in.InnerProto, in.Epoch, in.Nonce
	return out
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
	// Decode errors go back as the decoders' own sentinels: wrapping one
	// would make every piece of garbage cost an allocation.
	if err := s.ip.DecodeFromBytes(pkt); err != nil {
		n.stats.DropMalformed.Add(1)
		return nil, err
	}
	if s.ip.Protocol != wire.ProtoShim {
		return nil, ErrNotShim
	}
	if err := s.sh.DecodeFromBytes(s.ip.Payload()); err != nil {
		n.stats.DropMalformed.Add(1)
		return nil, err
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
