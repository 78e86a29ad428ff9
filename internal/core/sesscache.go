package core

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	"net/netip"
	"sync/atomic"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
)

// Session-key cache geometry: 64 sets × 8 ways of AES key schedules
// (aesutil.ExpandedKey) — a 4 KB table of pointers, allocated when a flow
// first repeats, each schedule a 384-byte heap object allocated the first
// time its way is filled and overwritten in place afterwards — over 8 KB of
// tags and 2.3 KB of per-set probe state with the doorkeeper in it. A
// scratch therefore holds what its established flows need, 196 KB if all
// 512 ways fill (264 KB while the ways held standard-library ciphers, PR 20).
// Chosen on alternating 15 s parent/change pairs of `go run ./benchmark`
// (PR 15, 2-vCPU host):
//
//   - Ways. 64 round-robin flows (core-flows, daemon-echo) overflow some
//     2-way set of 256 in about one scratch in two, and some 4-way set of
//     128 in one in 35 — a seeded core-flows scratch in eight held 59 of
//     its 64 flows, hit ratio 0.92 — while five flows sharing a set starve
//     one another at the doorkeeper for good. At 8 ways × 64 sets 24 of 24
//     scratches held all 64 (hit ratio 1.0000, no evictions) and
//     core-flows cost_x read 0.809 → 0.382–0.398 in 20 of 20 pairs.
//   - Size. No workload here has a worker see more than 512 established
//     flows at once. sim-backbone's 16 border scratches hold one or two
//     flows each: peak_rss_mb read 70.6 → 68.0 MB in 6 of 6 pairs with the
//     entries allocated per flow (PR 20; the slabs had added 4.4 % in PR 15).
//   - Layout. The probe is what one-packet flows pay (core-churn, hit
//     ratio 0): with tags, doorkeeper and live bits interleaved per set
//     (10.7 KB walked at random) core-churn cost_x read +3.1 % against the
//     parent in 10 of 10 pairs; with the 36-byte sessSet apart from the
//     tags and a scan of live ways only, +1.4–1.8 % (20 pairs), the
//     one-block KDF paying for the rest. The extra is cache footprint, not
//     instructions: the same miss path in a micro-benchmark is no slower
//     than the parent's.
const (
	sessWays = 8 // at most 8: sessSet.live is a byte
	sessSets = 64
)

// SessionCacheStats counts the outcomes of a Scratch's session-key cache.
type SessionCacheStats struct {
	Hits       uint64 // packets served by a cached schedule
	Misses     uint64 // packets that derived and expanded their key
	Admissions uint64 // schedules stored after a flow's second served miss
	Evictions  uint64 // admissions that replaced a live entry
}

// sessTag names a session: the inputs of Ks = hash(KM(epoch), nonce, src).
type sessTag struct {
	nonce uint64
	src   uint32
	epoch keys.Epoch
}

// sessSet is what every probe of a set reads and a served miss writes:
// 36 bytes, kept apart from the tags (read only where live says there is
// one to compare) and from the schedules (read only on a hit), so traffic
// that never repeats walks 2 KB, not the whole cache.
type sessSet struct {
	live  uint8 // bit w set: way w holds an entry
	evict uint8 // way the next admission into a full set replaces, round robin
	knock uint8 // door slot the next first sighting overwrites, round robin
	// door is the set's doorkeeper: fingerprints of the last served misses
	// that mapped here. A flow is admitted when it finds its own
	// fingerprint, i.e. on its second served packet; a one-packet flow
	// leaves four bytes behind and evicts nothing.
	door [sessWays]uint32
}

// sessProbe is what a missed lookup leaves for admit, so the tag is
// built and hashed once per packet.
type sessProbe struct {
	tag sessTag
	h   uint64
}

// sessionCache maps (epoch, nonce, src) to the AES schedule of the
// session key. It is soft state and never authoritative: every value
// is a pure function of its tag and the master-key schedule, a miss
// recomputes it, and losing the whole cache costs one recomputation per
// flow. Owner-only, like the Scratch it lives in, except its four counts:
// the owner adds to them and any goroutine may load them.
//
// Placement is a hash keyed with a seed drawn from crypto/rand (never
// from Config.Rand, whose draws decide output bytes), so a sender outside
// cannot aim two flows at one set. Entries belong to the *keys.Schedule
// they were derived under; a lookup under another one starts over.
type sessionCache struct {
	sched *keys.Schedule
	seed  [2]uint64
	sets  [sessSets]sessSet
	tags  [sessSets][sessWays]sessTag
	blks  [][sessWays]*aesutil.ExpandedKey // [set][way]; made at the first admission, a schedule when its way first fills

	hits, misses, admissions, evictions atomic.Uint64
}

// rebind empties the cache and binds it to sched; the ways keep their
// schedules for the next entries to overwrite.
func (c *sessionCache) rebind(sched *keys.Schedule) {
	c.sched = sched
	c.sets = [sessSets]sessSet{}
	var b [16]byte
	// A failed read leaves the seed as it was: placement is then
	// guessable, which costs hit rate under attack and nothing else.
	_, _ = rand.Read(b[:])
	c.seed = [2]uint64{binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:])}
}

// lookup returns the cached schedule for the session, or nil with p
// readied for admit once the packet has been served. The caller has
// already checked that epoch is inside the acceptance window.
func (c *sessionCache) lookup(sched *keys.Schedule, epoch keys.Epoch, nonce keys.Nonce, src netip.Addr, p *sessProbe) *aesutil.ExpandedKey {
	if c.sched != sched {
		c.rebind(sched)
	}
	if !src.Is4() {
		c.misses.Add(1)
		return nil // the derivation refuses it; nothing to admit
	}
	a4 := src.As4()
	tag := sessTag{nonce: binary.BigEndian.Uint64(nonce[:]), src: binary.BigEndian.Uint32(a4[:]), epoch: epoch}
	hi, lo := bits.Mul64(tag.nonce^c.seed[0], (uint64(tag.epoch)<<32|uint64(tag.src))^c.seed[1])
	h := (hi ^ lo) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	si := h % sessSets
	set := &c.sets[si]
	for live := set.live; live != 0; live &= live - 1 {
		if w := bits.TrailingZeros8(live); c.tags[si][w] == tag {
			c.hits.Add(1)
			return c.blks[si][w]
		}
	}
	c.misses.Add(1)
	p.tag, p.h = tag, h
	return nil
}

// admit offers the session a missed lookup went on to derive, with the
// schedule ek the miss expanded. Call it only after the packet has been
// served — address block verified, customer checks passed, output
// emitted — so that traffic the neutralizer refuses never writes here. A
// first sighting writes four bytes; an admission copies ek, whichever
// halves the packet derived, into the way's own schedule, allocated the
// first time the way is filled and never again.
func (c *sessionCache) admit(p *sessProbe, ek *aesutil.ExpandedKey) {
	si := p.h % sessSets
	set := &c.sets[si]
	fp := uint32(p.h>>32) | 1 // never an empty slot's zero
	seen := false
	for i := range set.door {
		seen = seen || set.door[i] == fp
	}
	if !seen {
		set.door[set.knock%sessWays] = fp
		set.knock++
		return
	}
	if c.blks == nil {
		c.blks = make([][sessWays]*aesutil.ExpandedKey, sessSets)
	}
	w := bits.TrailingZeros8(^set.live) // the first empty way
	if w >= sessWays {
		w = int(set.evict % sessWays)
		set.evict++
		c.evictions.Add(1)
	}
	c.tags[si][w] = p.tag
	set.live |= 1 << w
	if c.blks[si][w] == nil {
		c.blks[si][w] = new(aesutil.ExpandedKey)
	}
	*c.blks[si][w] = *ek
	c.admissions.Add(1)
}

// sessionKey returns Ks = hash(KM, nonce, src) as an AES schedule, ready
// for the packet's one address-block operation: the scratch's cached one
// when the session has one, else derived from the packet's own fields and
// expanded into the scratch's own. The same AES runs either way. Callers
// check the epoch window first, and offer the schedule to the cache
// (admitSession) only once the packet has been served.
func (n *Neutralizer) sessionKey(s *Scratch, epoch keys.Epoch, nonce keys.Nonce, src netip.Addr) (*aesutil.ExpandedKey, error) {
	if ek := s.sess.lookup(n.cfg.Schedule, epoch, nonce, src, &s.probe); ek != nil {
		return ek, nil
	}
	ks, err := n.cfg.Schedule.SessionKeyInto(&s.kw, epoch, nonce, src)
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return nil, err
	}
	s.ek.Expand(ks)
	return &s.ek, nil
}

// admitSession offers the schedule sessionKey returned for the packet
// just served to the cache, if it is one sessionKey had to derive.
func (s *Scratch) admitSession(ek *aesutil.ExpandedKey) {
	if ek == &s.ek {
		s.sess.admit(&s.probe, ek)
	}
}
