package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Recorder samples every registered, non-volatile family into fixed-
// size time-series rings. It never drives its own clock: the owner
// ticks it from an existing synchronization point — the netem engine's
// epoch barrier (Simulator.OnBarrier) — so recording adds no barriers
// and cannot perturb the event schedule. Sample times are virtual, and
// sampled values are pure functions of deterministic sim state, so a
// seeded run's rings are bit-identical at any worker count.
//
// For live export while a deterministic sim is running, the recorder
// can additionally publish a Snapshot at each tick behind an atomic
// pointer (PublishSnapshots turns it on): a read-side convenience that
// does not feed back into the sim.
type Recorder struct {
	reg *Registry

	mu       sync.Mutex
	series   []*Series
	byName   map[string]*Series
	lastTick int64
	started  bool
	ticks    atomic.Uint64

	publish atomic.Bool
	latest  atomic.Pointer[Snapshot]
}

const (
	// ringSize bounds each series in points.
	ringSize = 512
	// sampleInterval is the minimum virtual time between samples.
	sampleInterval = time.Millisecond
)

// NewRecorder creates a recorder over reg.
func NewRecorder(reg *Registry) *Recorder {
	return &Recorder{reg: reg, byName: make(map[string]*Series)}
}

// Registry returns the registry the recorder samples.
func (r *Recorder) Registry() *Registry { return r.reg }

// PublishSnapshots makes every tick from now on also publish the full
// barrier-consistent snapshot that Snapshot, and so /metrics, then serves.
func (r *Recorder) PublishSnapshots() { r.publish.Store(true) }

// Series is one metric's ring of (virtual time, value) points.
type Series struct {
	// Name is the family name, with ".p50"/".p95"/".p99" suffixes for
	// histogram quantile series.
	Name  string
	times []int64
	vals  []float64
	w     int
	full  bool
}

// Points returns the ring unrolled oldest-first (copies).
func (s *Series) Points() (times []int64, vals []float64) {
	if !s.full {
		return append([]int64(nil), s.times...), append([]float64(nil), s.vals...)
	}
	n := len(s.times)
	times = make([]int64, 0, n)
	vals = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		j := (s.w + i) % n
		times = append(times, s.times[j])
		vals = append(vals, s.vals[j])
	}
	return times, vals
}

func (s *Series) push(t int64, v float64) {
	if len(s.times) < ringSize {
		s.times = append(s.times, t)
		s.vals = append(s.vals, v)
		return
	}
	s.full = true
	s.times[s.w] = t
	s.vals[s.w] = v
	s.w = (s.w + 1) % len(s.times)
}

// Tick samples every non-volatile family at virtual time nowNanos.
// Called from the engine's barrier (single-threaded, writers
// quiescent). sampleInterval gating keys on virtual time, so tick counts
// are a function of the simulated timeline, not of execution.
func (r *Recorder) Tick(nowNanos int64) {
	r.mu.Lock()
	if r.started && nowNanos-r.lastTick < int64(sampleInterval) {
		r.mu.Unlock()
		return
	}
	r.lastTick = nowNanos
	r.started = true
	r.ticks.Add(1)
	snap := r.reg.snapshotAt(nowNanos, true)
	for _, m := range snap.Metrics {
		if m.Hist != nil {
			r.seriesFor(m.Name+".count").push(nowNanos, float64(m.Hist.Count))
			r.seriesFor(m.Name+".p50").push(nowNanos, m.Hist.P50)
			r.seriesFor(m.Name+".p95").push(nowNanos, m.Hist.P95)
			r.seriesFor(m.Name+".p99").push(nowNanos, m.Hist.P99)
			continue
		}
		r.seriesFor(m.Name).push(nowNanos, m.Value)
	}
	r.mu.Unlock()

	if r.publish.Load() {
		r.latest.Store(r.reg.snapshotAt(nowNanos, false))
	}
}

func (r *Recorder) seriesFor(name string) *Series {
	s, ok := r.byName[name]
	if !ok {
		s = &Series{Name: name}
		r.byName[name] = s
		r.series = append(r.series, s)
	}
	return s
}

// Ticks reports how many samples were taken.
func (r *Recorder) Ticks() uint64 { return r.ticks.Load() }

// Series returns the recorded series in first-seen order.
func (r *Recorder) Series() []*Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Series, len(r.series))
	copy(out, r.series)
	return out
}

// Snapshot implements Source: the last published snapshot if publishing
// is on, else a live read of the registry. Mid-run scrapes of a sim,
// whose counts are plain fields, should come from published snapshots
// (barrier-consistent); the live fallback serves the post-run and
// pre-run cases.
func (r *Recorder) Snapshot() *Snapshot {
	if s := r.latest.Load(); s != nil {
		return s
	}
	return r.reg.Snapshot()
}

// Register exposes recorder health on the registry it samples.
func (r *Recorder) Register() {
	r.reg.CounterFunc("obs_recorder_ticks_total",
		"Samples the epoch recorder has taken.", r.Ticks, Volatile())
}
