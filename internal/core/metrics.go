package core

// Registry bridge for the data plane. Every counter is read where it is
// written: the Neutralizer's Stats block and each Scratch's session-cache
// counts are atomics, and their families are CounterFuncs that load them
// at scrape time.

import (
	"fmt"
	"sync/atomic"

	"netneutral/internal/obs"
)

// Register exports n's Stats as the core_* families and, for each
// scratches[i], the outcomes of its session-key cache:
//
//	core_session_cache_hits_total{worker="i"}       packets served from a cached key schedule
//	core_session_cache_misses_total{worker="i"}     packets that derived and expanded their key
//	core_session_cache_admissions_total{worker="i"} schedules stored (a flow's second served miss)
//	core_session_cache_evictions_total{worker="i"}  admissions that replaced a live entry
//
// hits / (hits + misses) is the hit rate of the traffic mix the worker
// sees. The cache families are Volatile: cache placement is keyed with a
// seed drawn per Scratch, so evictions — and with them every count there
// — are not a function of the run's seed and must stay out of replay
// digests.
func Register(reg *obs.Registry, n *Neutralizer, scratches []*Scratch) {
	s := &n.stats
	for _, f := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"core_key_setups_total{mode=\"local\"}", "Key-setup responses produced locally.", &s.KeySetups},
		{"core_key_setups_total{mode=\"offload\"}", "Key-setups delegated to offload helpers.", &s.KeySetupsOffload},
		{"core_key_setups_total{mode=\"alt\"}", "Alternative-mode (RSA) setups.", &s.AltSetups},
		{"core_forwarded_packets_total{path=\"data\"}", "Forward-path data packets neutralized and forwarded.", &s.DataForwarded},
		{"core_forwarded_packets_total{path=\"return\"}", "Return-path data packets forwarded.", &s.ReturnForwarded},
		{"core_grants_stamped_total", "Fresh (nonce', Ks') grants issued on the return path.", &s.GrantsStamped},
		{"core_key_fetches_total", "Customer key fetches served (paper section 3.3).", &s.KeyFetches},
		{"core_drops_total{reason=\"stale_epoch\"}", "Packets dropped for an unacceptable crypto epoch.", &s.DropStaleEpoch},
		{"core_drops_total{reason=\"bad_addr_block\"}", "Packets dropped for an undecryptable address block.", &s.DropBadAddrBlock},
		{"core_drops_total{reason=\"not_customer\"}", "Packets dropped for a non-customer destination.", &s.DropNotCustomer},
		{"core_drops_total{reason=\"malformed\"}", "Packets dropped as malformed.", &s.DropMalformed},
		{"core_drops_total{reason=\"dyn_pool_exhausted\"}", "Return packets refused a dynamic address (pool exhausted or not configured).", &s.DropDynExhausted},
		{"core_dyn_addrs_allocated_total", "Dynamic return addresses allocated.", &s.DynAddrsAllocated},
	} {
		reg.CounterFunc(f.name, f.help, f.v.Load)
	}
	for i, scr := range scratches {
		scr := scr // one variable per worker: go.mod's language version shares the range variable
		for _, f := range []struct {
			name, help string
			get        func(SessionCacheStats) uint64
		}{
			{"hits", "Packets served from this worker's cached session-key schedules.",
				func(c SessionCacheStats) uint64 { return c.Hits }},
			{"misses", "Packets for which this worker derived and expanded the session key.",
				func(c SessionCacheStats) uint64 { return c.Misses }},
			{"admissions", "Session-key schedules this worker cached (a flow's second served miss).",
				func(c SessionCacheStats) uint64 { return c.Admissions }},
			{"evictions", "Cache admissions of this worker that replaced a live entry.",
				func(c SessionCacheStats) uint64 { return c.Evictions }},
		} {
			get := f.get
			reg.CounterFunc(fmt.Sprintf("core_session_cache_%s_total{worker=\"%d\"}", f.name, i), f.help,
				func() uint64 { return get(scr.SessionCacheStats()) }, obs.Volatile())
		}
	}
}
