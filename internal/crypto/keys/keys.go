// Package keys implements the neutralizer's master-key schedule and the
// stateless session-key derivation at the heart of the design.
//
// A neutralizer holds a long-term root secret from which per-epoch master
// keys KM are derived. The paper assumes "a neutralizer's master key lasts
// for an hour"; epochs make that rotation explicit, and a one-epoch grace
// window lets packets keyed just before a rotation still decrypt.
//
// All neutralizers of a domain share the root secret, so ANY replica can
// derive Ks = hash(KM, nonce, srcIP) for any packet — the anycast,
// fault-tolerant property the paper calls out ("as long as the
// neutralizers of a domain share the master key KM, any neutralizer can
// decrypt the destination address and forward the packet").
package keys

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/crypto/aesutil"
)

// DefaultEpochLength mirrors the paper's hourly master key.
const DefaultEpochLength = time.Hour

// Epoch identifies a master-key validity period.
type Epoch uint32

// Nonce is the per-source random value carried in clear in the shim
// header; together with the source address and KM it determines Ks.
type Nonce [8]byte

// NewNonce draws a random nonce from rng (crypto/rand if nil).
func NewNonce(rng io.Reader) (Nonce, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var n Nonce
	if _, err := io.ReadFull(rng, n[:]); err != nil {
		return Nonce{}, fmt.Errorf("keys: reading nonce entropy: %w", err)
	}
	return n, nil
}

// Schedule derives per-epoch master keys from a root secret. The zero
// value is not usable; construct with NewSchedule. A Schedule is safe for
// concurrent use; the only mutable state is a cache of derived per-epoch
// master keys (pure functions of the root, so caching does not violate
// the neutralizer's statelessness — the cache is config, not flow state).
//
// The cache is copy-on-write: readers load an immutable slice through an
// atomic pointer and never take a lock, so session-key derivation scales
// linearly across the shard workers hammering one shared Schedule. Only
// the handful of first-packet-of-an-epoch writers serialize on the mutex.
type Schedule struct {
	root     aesutil.Key
	epochLen time.Duration
	startNs  int64 // the anchor in Unix nanoseconds: the per-packet window check is integer arithmetic

	cache atomic.Pointer[[]epochEntry] // in order of derivation
	mu    sync.Mutex                   // serializes cache writers only
}

// epochEntry caches everything derivable from one epoch's master key KM:
// its AES schedule, so the per-packet KDF expands nothing, and the
// CBC-MAC state after the length block of the KDF frame — the frame is
// always one AES block long, so that state is a constant of the epoch and
// the per-packet KDF is the one block operation that absorbs the frame.
// The schedule sits behind a pointer so a lookup copies 32 bytes, not
// the schedule's 356; the prefix is kept as two big-endian words.
type epochEntry struct {
	e      Epoch
	km     *aesutil.ExpandedKey
	prefix [2]uint64
}

// NewSchedule creates a schedule anchored at start with the given epoch
// length (DefaultEpochLength if zero).
func NewSchedule(root aesutil.Key, start time.Time, epochLen time.Duration) *Schedule {
	if epochLen <= 0 {
		epochLen = DefaultEpochLength
	}
	s := &Schedule{root: root, epochLen: epochLen, startNs: start.UnixNano()}
	s.cache.Store(new([]epochEntry))
	return s
}

// EpochLength returns the schedule's rotation period.
func (s *Schedule) EpochLength() time.Duration { return s.epochLen }

// EpochAt returns the epoch in force at time t. Times before the anchor
// map to epoch 0. One integer subtraction and one divide: t and the anchor
// must be instants UnixNano can express (years 1678–2262).
func (s *Schedule) EpochAt(t time.Time) Epoch {
	d := t.UnixNano() - s.startNs
	if d < 0 {
		return 0
	}
	return Epoch(d / int64(s.epochLen))
}

// epoch returns the cached entry for e, deriving and publishing it on
// first use, and reports whether the lock-free fast path hit.
func (s *Schedule) epoch(e Epoch) (epochEntry, bool) {
	c := *s.cache.Load()
	for i := len(c) - 1; i >= 0; i-- { // newest first: the current epoch, then its predecessor
		if c[i].e == e {
			return c[i], true
		}
	}
	return s.deriveEpoch(e), false
}

// deriveEpoch is the slow path: derive KM for e under the writer lock
// and publish a copy-on-write successor cache.
func (s *Schedule) deriveEpoch(e Epoch) epochEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.cache.Load()
	for _, ent := range old {
		if ent.e == e {
			return ent
		}
	}
	var eb [4]byte
	binary.BigEndian.PutUint32(eb[:], uint32(e))
	k := aesutil.DeriveKey(s.root, []byte("netneutral-master-key"), eb[:])
	ent := epochEntry{e: e, km: new(aesutil.ExpandedKey)}
	ent.km.Expand(k)
	p := ent.km.MACPrefix(kdfFrameLen)
	ent.prefix = [2]uint64{binary.BigEndian.Uint64(p[:8]), binary.BigEndian.Uint64(p[8:])}
	next := append(old[:len(old):len(old)], ent)
	s.cache.Store(&next)
	return ent
}

// Acceptable reports whether a packet keyed under epoch pkt should be
// accepted at time now: the current epoch always, and the immediately
// previous epoch as a grace window for packets in flight across a
// rotation.
func (s *Schedule) Acceptable(pkt Epoch, now time.Time) bool {
	cur := s.EpochAt(now)
	return pkt == cur || (cur > 0 && pkt == cur-1)
}

// kdfFrameLen is the size of the KDF input frame: exactly one AES block.
const kdfFrameLen = aesutil.BlockSize

// Work holds a worker's epoch-cache counters for SessionKeyInto; the
// derivation itself needs no working state. The zero value is ready to
// use.
type Work struct {
	// epochHits / epochMisses count epoch-cache outcomes of derivations
	// through this Work. Plain fields on single-writer state: the owner
	// increments them for free on the hot path and copies them out at
	// batch boundaries (see core.Pool's instrumentation); reading them
	// concurrently with derivations is a data race by design.
	epochHits   uint64
	epochMisses uint64
}

// EpochCacheStats reports the epoch-cache hit/miss counts of derivations
// run through this Work. Owner-only: call it from the goroutine that owns
// the Work (or at a quiescent point), never concurrently with
// SessionKeyInto.
func (w *Work) EpochCacheStats() (hits, misses uint64) {
	return w.epochHits, w.epochMisses
}

// SessionKey computes the paper's core derivation
//
//	Ks = hash(KM, nonce, srcIP)
//
// for the given epoch. The computation is pure: no state is read or
// written, which is what makes the neutralizer stateless and replicable.
func (s *Schedule) SessionKey(e Epoch, nonce Nonce, src netip.Addr) (aesutil.Key, error) {
	var w Work
	return s.SessionKeyInto(&w, e, nonce, src)
}

// SessionKeyInto is SessionKey counting into the caller's Work: one AES
// block operation on the cached epoch schedule (the CBC-MAC's length block
// is precomputed per epoch) and zero allocations. It computes
// bit-identical output to SessionKey.
func (s *Schedule) SessionKeyInto(w *Work, e Epoch, nonce Nonce, src netip.Addr) (aesutil.Key, error) {
	if !src.Is4() {
		return aesutil.Key{}, fmt.Errorf("keys: source %v is not IPv4", src)
	}
	ent, hit := s.epoch(e)
	if hit {
		w.epochHits++
	} else {
		w.epochMisses++
	}
	// prefix ⊕ frame, the frame being aesutil.DeriveKey(km, nonce[:], a4[:])'s:
	// len16(8) ‖ nonce ‖ len16(4) ‖ addr — 16 bytes, one AES block, built
	// as two words (byte stores read back as wider loads stall the CPU).
	n, a4 := binary.BigEndian.Uint64(nonce[:]), src.As4()
	var mac [kdfFrameLen]byte
	binary.BigEndian.PutUint64(mac[:8], ent.prefix[0]^(8<<48|n>>16))
	binary.BigEndian.PutUint64(mac[8:], ent.prefix[1]^(n<<48|4<<32|uint64(binary.BigEndian.Uint32(a4[:]))))
	ent.km.EncryptBlock(&mac, &mac)
	return aesutil.Key(mac), nil
}
