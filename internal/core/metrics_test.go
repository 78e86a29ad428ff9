package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/obs"
)

// cacheFamilies reads worker w's four session-cache families from snap,
// in SessionCacheStats order; a missing family reads as a failure.
func cacheFamilies(t *testing.T, snap *obs.Snapshot, w int) SessionCacheStats {
	t.Helper()
	var v [4]uint64
	for i, name := range [4]string{"hits", "misses", "admissions", "evictions"} {
		m := snap.Get(fmt.Sprintf("core_session_cache_%s_total{worker=\"%d\"}", name, w))
		if m == nil {
			t.Fatalf("no %s family for worker %d", name, w)
		}
		v[i] = uint64(m.Value)
	}
	return SessionCacheStats{v[0], v[1], v[2], v[3]}
}

// TestRegisterNames pins the families Register exports: one per
// StatsSnapshot field (a new Stats field must be added to the bridge),
// then four per scratch, each bound to its own scratch — a family that
// captured the loop's variable would read the last scratch for every
// worker.
func TestRegisterNames(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	sched := testSchedule()
	scr := []*Scratch{NewScratch(), NewScratch()}
	reg := obs.NewRegistry()
	Register(reg, n, scr)
	f := mkFlow(t, sched, sched.EpochAt(tStart.Add(10*time.Minute)), 1)
	for i := 0; i < 3; i++ { // a miss, a miss that admits, a hit
		if _, err := one(t, n, scr[1], f.data(t, f.ks, googAddr)); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	stats := reflect.TypeOf(StatsSnapshot{}).NumField()
	if want := stats + len(scr)*4; len(snap.Metrics) != want {
		t.Fatalf("Register exported %d families, want %d (one per StatsSnapshot field, four per scratch):\n%+v",
			len(snap.Metrics), want, snap.Metrics)
	}
	for i, m := range snap.Metrics {
		if m.Kind != obs.KindCounterFunc || m.Volatile != (i >= stats) {
			t.Errorf("family %s: kind %v volatile %v, want a counter func, volatile only for the cache", m.Name, m.Kind, m.Volatile)
		}
	}
	if got := cacheFamilies(t, snap, 0); got != (SessionCacheStats{}) {
		t.Errorf("worker 0 processed nothing, its families read %+v", got)
	}
	want := SessionCacheStats{Hits: 1, Misses: 2, Admissions: 1}
	if got := scr[1].SessionCacheStats(); got != want {
		t.Fatalf("scratch 1 counted %+v, want %+v", got, want)
	}
	if got := cacheFamilies(t, snap, 1); got != want {
		t.Errorf("worker 1's families read %+v, want %+v", got, want)
	}
}

// TestCountersReadWhileProcessing reads the registry Register fills while
// four workers, each with its own Scratch, push one mix — forward,
// return, stale-epoch and bad-block packets — through one Neutralizer.
// Under -race it shows that every family is read where it is written; at
// the end each family equals its source and the mix's per-class count.
func TestCountersReadWhileProcessing(t *testing.T) {
	const workers, flows, rounds = 4, 8, 200
	now := tStart.Add(5*time.Hour + 10*time.Minute) // epoch 5: epoch 3 is stale
	n := newTestNeutralizer(t, func(c *Config) {
		c.Clock = func() time.Time { return now }
		c.Rand = nil // each scratch draws from its own generator
	})
	sched := testSchedule()
	type packet struct {
		pkt  []byte
		want error
	}
	mixes := make([][]packet, workers)
	for w := range mixes {
		for j := 0; j < flows; j++ {
			good := mkFlow(t, sched, 5, w*flows+j+1)
			stale := mkFlow(t, sched, 3, w*flows+j+1)
			mixes[w] = append(mixes[w],
				packet{good.data(t, good.ks, googAddr), nil},
				packet{good.ret(t, 0), nil},
				packet{stale.data(t, stale.ks, googAddr), ErrStaleEpoch},
				packet{good.data(t, aesutil.Key{0xff}, googAddr), ErrBadAddrBlock})
		}
	}
	scr := make([]*Scratch, workers)
	for w := range scr {
		scr[w] = NewScratch()
	}
	reg := obs.NewRegistry()
	Register(reg, n, scr)

	stop, started, read := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { // the scraper: every family only ever grows, no scratch overcounts
		defer close(read)
		prev := reg.Snapshot()
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			for i, m := range snap.Metrics {
				if m.Value < prev.Metrics[i].Value {
					t.Errorf("%s went down: %v -> %v", m.Name, prev.Metrics[i].Value, m.Value)
				}
			}
			prev = snap
			for w, s := range scr {
				if st := s.SessionCacheStats(); st.Hits+st.Misses > 3*flows*rounds {
					t.Errorf("worker %d: %+v, more lookups than packets that look up", w, st)
				}
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	for w := range scr {
		wg.Add(1)
		go func(s *Scratch, mix []packet) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, p := range mix {
					s.Reset()
					if _, err := n.ProcessScratch(s, p.pkt); err != p.want {
						t.Errorf("round %d packet %d: err %v, want %v", r, i, err, p.want)
						return
					}
				}
			}
		}(scr[w], mixes[w])
	}
	wg.Wait()
	close(stop)
	<-read

	snap := reg.Snapshot()
	st := reflect.ValueOf(n.Stats().Snapshot())
	for i := 0; i < st.NumField(); i++ {
		if got, want := snap.Metrics[i].Value, float64(st.Field(i).Uint()); got != want {
			t.Errorf("%s = %v, Stats().Snapshot().%s = %v", snap.Metrics[i].Name, got, st.Type().Field(i).Name, want)
		}
	}
	each := float64(workers * flows * rounds) // packets of each class
	for name, want := range map[string]float64{
		`core_forwarded_packets_total{path="data"}`:   each,
		`core_forwarded_packets_total{path="return"}`: each,
		`core_drops_total{reason="stale_epoch"}`:      each,
		`core_drops_total{reason="bad_addr_block"}`:   each,
		`core_drops_total{reason="malformed"}`:        0,
	} {
		if got := snap.Get(name).Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for w, s := range scr {
		got, want := cacheFamilies(t, snap, w), s.SessionCacheStats()
		if got != want {
			t.Errorf("worker %d: families read %+v, SessionCacheStats %+v", w, got, want)
		}
		// A stale packet is refused before the lookup; the other three look up.
		if got.Hits+got.Misses != 3*flows*rounds || got.Hits == 0 {
			t.Errorf("worker %d: %d hits + %d misses, want %d lookups, some hits", w, got.Hits, got.Misses, 3*flows*rounds)
		}
	}
}
