package core

import (
	"fmt"
	"reflect"
	"testing"

	"netneutral/internal/obs"
)

// TestPoolInstrument pins the registry bridge: per-worker packet and
// crypto-epoch counters sum to the pool's own accounting, and the
// StatsSnapshot families mirror the merged replica stats.
func TestPoolInstrument(t *testing.T) {
	sched := testSchedule()
	p, err := NewPool(PoolConfig{Workers: 4, Config: concConfig(sched)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := obs.NewRegistry()
	p.Instrument(reg)

	pkts, good, bad := mkDataBatch(t, sched, 64, true)
	total := 0
	for batch := 0; batch < 3; batch++ {
		_, dropped := p.ProcessBatch(pkts)
		if dropped != bad {
			t.Fatalf("batch %d dropped %d, want %d", batch, dropped, bad)
		}
		total += len(pkts)
	}
	_ = good

	snap := reg.Snapshot()
	sum := func(base string) (v uint64) {
		for _, m := range snap.Metrics {
			if m.Base == base {
				v += uint64(m.Value)
			}
		}
		return v
	}
	if got := sum("core_worker_packets_total"); got != uint64(total) {
		t.Errorf("worker packets = %d, want %d", got, total)
	}
	if got := sum("core_worker_drops_total"); got != p.Dropped() {
		t.Errorf("worker drops = %d, want %d", got, p.Dropped())
	}
	hits, misses := sum("core_crypto_epoch_hits_total"), sum("core_crypto_epoch_misses_total")
	if hits == 0 {
		t.Error("no crypto-epoch cache hits recorded")
	}
	if hits+misses < uint64(good) {
		t.Errorf("epoch lookups %d below good packets %d", hits+misses, good)
	}
	// The test itself derived the epoch while building packets, so the
	// workers only ever hit the warm cache.
	if misses != 0 {
		t.Errorf("worker epoch misses = %d, want 0 (cache pre-warmed)", misses)
	}

	stats := p.Stats()
	// Every packet that parses and passes the epoch check asks a worker's
	// session cache once; by the third batch the 64 flows are established.
	// The counts depend on each scratch's placement seed, hence Volatile.
	sessHits, sessMisses := sum("core_session_cache_hits_total"), sum("core_session_cache_misses_total")
	if want := stats.DataForwarded + stats.DropBadAddrBlock; sessHits+sessMisses != want {
		t.Errorf("session cache lookups = %d, want %d", sessHits+sessMisses, want)
	}
	if sessHits == 0 || sum("core_session_cache_admissions_total") == 0 {
		t.Errorf("session cache never warmed: %d hits of %d lookups", sessHits, sessHits+sessMisses)
	}
	if m := snap.Get("core_session_cache_evictions_total{worker=\"0\"}"); m == nil || !m.Volatile {
		t.Errorf("core_session_cache_evictions_total{worker=\"0\"} missing or not volatile: %+v", m)
	}

	statChecks := map[string]uint64{
		"core_forwarded_packets_total{path=\"data\"}": stats.DataForwarded,
		"core_drops_total{reason=\"bad_addr_block\"}": stats.DropBadAddrBlock,
		"core_drops_total{reason=\"malformed\"}":      stats.DropMalformed,
	}
	for name, want := range statChecks {
		m := snap.Get(name)
		if m == nil {
			t.Errorf("registry missing %s", name)
			continue
		}
		if uint64(m.Value) != want {
			t.Errorf("%s = %v, stats say %d", name, m.Value, want)
		}
		if want == 0 {
			t.Errorf("%s unexpectedly zero (degenerate check)", name)
		}
	}
}

// TestRegisterStatsNames pins that every StatsSnapshot field has a
// registry family (a new Stats field must be added to the bridge).
func TestRegisterStatsNames(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterStats(reg, func() StatsSnapshot { return StatsSnapshot{} })
	families := reg.Snapshot().Metrics
	if want := reflect.TypeOf(StatsSnapshot{}).NumField(); len(families) != want {
		t.Fatalf("RegisterStats exported %d families, want %d (one per StatsSnapshot field):\n%+v",
			len(families), want, families)
	}
	for _, m := range families {
		if m.Kind != obs.KindCounterFunc {
			t.Errorf("family %s: not a counter func (%+v)", m.Name, m)
		}
	}
}

// TestPoolInstrumentWhileRunning exercises Instrument racing live
// batches: counters must start cleanly mid-stream (run with -race).
func TestPoolInstrumentWhileRunning(t *testing.T) {
	sched := testSchedule()
	p, err := NewPool(PoolConfig{Workers: 2, Config: concConfig(sched)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pkts, _, _ := mkDataBatch(t, sched, 16, false)
	reg := obs.NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Instrument(reg)
		for i := 0; i < 5; i++ {
			_ = reg.Snapshot()
		}
	}()
	for i := 0; i < 20; i++ {
		p.ProcessBatch(pkts)
	}
	<-done
	// The race above may end before Instrument took effect (it did in ~3%
	// of runs); one batch after it certainly lands on the counters.
	p.ProcessBatch(pkts)
	snap := reg.Snapshot()
	var counted uint64
	for w := 0; w < p.Workers(); w++ {
		if m := snap.Get(fmt.Sprintf("core_worker_packets_total{worker=\"%d\"}", w)); m != nil {
			counted += uint64(m.Value)
		}
	}
	if counted == 0 {
		t.Error("no packets counted after mid-stream Instrument")
	}
}
