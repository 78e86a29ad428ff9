package core

// Registry bridge for the data plane. The Pool's shard workers run
// concurrently, so their counters follow the atomic-stripe discipline:
// each worker owns one cache-line-padded AtomicCounter per family and
// adds batch-granular deltas (one atomic add per batch, not per packet).
// The Neutralizer's own Stats block is already atomic; it is exported
// through CounterFuncs that snapshot it at read time.

import (
	"fmt"

	"netneutral/internal/obs"
)

// poolMetrics is the per-worker counter block a Pool publishes into a
// registry. It is installed with an atomic pointer so Instrument may be
// called while workers are live.
type poolMetrics struct {
	pkts  []*obs.AtomicCounter
	drops []*obs.AtomicCounter
	epoch []scratchCounters // epoch-cache hits, misses
	sess  []*SessionCacheMetrics
}

// scratchCounters publishes a Scratch's plain cumulative counts as
// registry counters: each flush adds what was counted since the previous
// one. The one way this file exports a scratch's counters; owner-only,
// like the scratch, so last has a single writer.
type scratchCounters struct {
	ctr  []*obs.AtomicCounter
	last []uint64
}

func newScratchCounters(ctr ...*obs.AtomicCounter) scratchCounters {
	return scratchCounters{ctr: ctr, last: make([]uint64, len(ctr))}
}

func (c *scratchCounters) flush(now ...uint64) {
	for i, v := range now {
		if d := v - c.last[i]; d != 0 {
			c.ctr[i].Add(d)
		}
		c.last[i] = v
	}
}

// SessionCacheMetrics publishes one worker's Scratch.SessionCacheStats:
//
//	core_session_cache_hits_total{worker="i"}       packets served from a cached key schedule
//	core_session_cache_misses_total{worker="i"}     packets that derived and expanded their key
//	core_session_cache_admissions_total{worker="i"} schedules stored (a flow's second served miss)
//	core_session_cache_evictions_total{worker="i"}  admissions that replaced a live entry
//
// hits / (hits + misses) is the hit rate of the traffic mix the worker
// sees. The families are Volatile: cache placement is keyed with a seed
// drawn per Scratch, so evictions — and with them every count here — are
// not a function of the run's seed and must stay out of replay digests.
type SessionCacheMetrics struct{ scratchCounters }

// NewSessionCacheMetrics registers the four families for one worker.
func NewSessionCacheMetrics(reg *obs.Registry, worker int) *SessionCacheMetrics {
	var ctr []*obs.AtomicCounter
	for _, f := range [4][2]string{
		{"hits", "Packets served from this worker's cached session-key schedules."},
		{"misses", "Packets for which this worker derived and expanded the session key."},
		{"admissions", "Session-key schedules this worker cached (a flow's second served miss)."},
		{"evictions", "Cache admissions of this worker that replaced a live entry."},
	} {
		ctr = append(ctr, reg.Counter(fmt.Sprintf("core_session_cache_%s_total{worker=\"%d\"}", f[0], worker),
			f[1], obs.Volatile()).AtomicStripe(0))
	}
	return &SessionCacheMetrics{newScratchCounters(ctr...)}
}

// Flush publishes what scr's cache has counted since the previous Flush.
// Owner-only, like the scratch: call it from the goroutine that processes
// with scr.
func (m *SessionCacheMetrics) Flush(scr *Scratch) {
	now := scr.SessionCacheStats()
	m.flush(now.Hits, now.Misses, now.Admissions, now.Evictions)
}

// Instrument registers the pool's per-worker counters and its merged
// Neutralizer stats on reg:
//
//	core_worker_packets_total{worker="i"}      packets processed by shard i
//	core_worker_drops_total{worker="i"}        packets shard i dropped
//	core_crypto_epoch_hits_total{worker="i"}   epoch-cache hits of shard i
//	core_crypto_epoch_misses_total{worker="i"} epoch-cache misses of shard i
//
// plus each shard's SessionCacheMetrics families and the RegisterStats
// families over the merged replica snapshot.
// Safe to call while the pool is processing; counters start from the
// next batch. Call it once per registry.
func (p *Pool) Instrument(reg *obs.Registry) {
	w := len(p.replicas)
	m := &poolMetrics{
		pkts:  make([]*obs.AtomicCounter, w),
		drops: make([]*obs.AtomicCounter, w),
		epoch: make([]scratchCounters, w),
		sess:  make([]*SessionCacheMetrics, w),
	}
	for i := 0; i < w; i++ {
		m.pkts[i] = reg.Counter(fmt.Sprintf("core_worker_packets_total{worker=\"%d\"}", i),
			"Packets processed by this pool shard worker.").AtomicStripe(0)
		m.drops[i] = reg.Counter(fmt.Sprintf("core_worker_drops_total{worker=\"%d\"}", i),
			"Packets this pool shard worker dropped (itemized in core_drops_total).").AtomicStripe(0)
		m.epoch[i] = newScratchCounters(
			reg.Counter(fmt.Sprintf("core_crypto_epoch_hits_total{worker=\"%d\"}", i),
				"Session-key derivations served from this worker's lock-free epoch cache.").AtomicStripe(0),
			reg.Counter(fmt.Sprintf("core_crypto_epoch_misses_total{worker=\"%d\"}", i),
				"Session-key derivations that took the epoch-derivation slow path.").AtomicStripe(0))
		m.sess[i] = NewSessionCacheMetrics(reg, i)
	}
	p.met.Store(m)
	RegisterStats(reg, p.Stats)
}

// flushWorkerMetrics publishes shard i's batch counters. Called from the
// worker goroutine at the end of each batch, so shard i's scratchCounters
// have a single writer.
func (m *poolMetrics) flushWorkerMetrics(i int, pkts, drops uint64, scr *Scratch) {
	m.pkts[i].Add(pkts)
	m.drops[i].Add(drops)
	m.epoch[i].flush(scr.CryptoEpochStats())
	m.sess[i].Flush(scr)
}

// RegisterStats exports a StatsSnapshot source (a single Neutralizer's
// Stats().Snapshot, a Pool's merged Stats, or an anycast aggregate) as
// counter families on reg. The source is invoked at snapshot time; it
// must be safe to call concurrently with packet processing (the atomic
// Stats block is).
func RegisterStats(reg *obs.Registry, snap func() StatsSnapshot) {
	type field struct {
		name, help string
		get        func(StatsSnapshot) uint64
	}
	fields := []field{
		{"core_key_setups_total{mode=\"local\"}", "Key-setup responses produced locally.",
			func(s StatsSnapshot) uint64 { return s.KeySetups }},
		{"core_key_setups_total{mode=\"offload\"}", "Key-setups delegated to offload helpers.",
			func(s StatsSnapshot) uint64 { return s.KeySetupsOffload }},
		{"core_key_setups_total{mode=\"alt\"}", "Alternative-mode (RSA) setups.",
			func(s StatsSnapshot) uint64 { return s.AltSetups }},
		{"core_forwarded_packets_total{path=\"data\"}", "Forward-path data packets neutralized and forwarded.",
			func(s StatsSnapshot) uint64 { return s.DataForwarded }},
		{"core_forwarded_packets_total{path=\"return\"}", "Return-path data packets forwarded.",
			func(s StatsSnapshot) uint64 { return s.ReturnForwarded }},
		{"core_grants_stamped_total", "Fresh (nonce', Ks') grants issued on the return path.",
			func(s StatsSnapshot) uint64 { return s.GrantsStamped }},
		{"core_key_fetches_total", "Customer key fetches served (paper section 3.3).",
			func(s StatsSnapshot) uint64 { return s.KeyFetches }},
		{"core_drops_total{reason=\"stale_epoch\"}", "Packets dropped for an unacceptable crypto epoch.",
			func(s StatsSnapshot) uint64 { return s.DropStaleEpoch }},
		{"core_drops_total{reason=\"bad_addr_block\"}", "Packets dropped for an undecryptable address block.",
			func(s StatsSnapshot) uint64 { return s.DropBadAddrBlock }},
		{"core_drops_total{reason=\"not_customer\"}", "Packets dropped for a non-customer destination.",
			func(s StatsSnapshot) uint64 { return s.DropNotCustomer }},
		{"core_drops_total{reason=\"malformed\"}", "Packets dropped as malformed.",
			func(s StatsSnapshot) uint64 { return s.DropMalformed }},
		{"core_drops_total{reason=\"dyn_pool_exhausted\"}", "Return packets refused a dynamic address (pool exhausted or not configured).",
			func(s StatsSnapshot) uint64 { return s.DropDynExhausted }},
		{"core_dyn_addrs_allocated_total", "Dynamic return addresses allocated.",
			func(s StatsSnapshot) uint64 { return s.DynAddrsAllocated }},
	}
	for _, f := range fields {
		get := f.get
		reg.CounterFunc(f.name, f.help, func() uint64 { return get(snap()) })
	}
}
