package core

// Registry bridge for the data plane. The Neutralizer's own Stats block
// is atomic; it is exported through CounterFuncs that snapshot it at read
// time. What a worker's Scratch counts is plain and owner-only, so the
// worker publishes it into atomic stripes of its own.

import (
	"fmt"

	"netneutral/internal/obs"
)

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
type SessionCacheMetrics struct {
	ctr  [4]*obs.AtomicCounter
	last [4]uint64 // owner-only, like the scratch: a single writer
}

// NewSessionCacheMetrics registers the four families for one worker.
func NewSessionCacheMetrics(reg *obs.Registry, worker int) *SessionCacheMetrics {
	m := &SessionCacheMetrics{}
	for i, f := range [4][2]string{
		{"hits", "Packets served from this worker's cached session-key schedules."},
		{"misses", "Packets for which this worker derived and expanded the session key."},
		{"admissions", "Session-key schedules this worker cached (a flow's second served miss)."},
		{"evictions", "Cache admissions of this worker that replaced a live entry."},
	} {
		m.ctr[i] = reg.Counter(fmt.Sprintf("core_session_cache_%s_total{worker=\"%d\"}", f[0], worker),
			f[1], obs.Volatile()).AtomicStripe(0)
	}
	return m
}

// Flush publishes what scr's cache has counted since the previous Flush.
// Owner-only, like the scratch: call it from the goroutine that processes
// with scr.
func (m *SessionCacheMetrics) Flush(scr *Scratch) {
	now := scr.SessionCacheStats()
	for i, v := range [4]uint64{now.Hits, now.Misses, now.Admissions, now.Evictions} {
		if d := v - m.last[i]; d != 0 {
			m.ctr[i].Add(d)
		}
		m.last[i] = v
	}
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
