package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder folds every registered, non-volatile family into one running
// digest at each sample. It never drives its own clock: the owner ticks
// it from an existing synchronization point — the netem engine's epoch
// barrier (Simulator.OnBarrier) — so recording adds no barriers and
// cannot perturb the event schedule. Sample times are virtual, and
// sampled values are pure functions of deterministic sim state, so a
// seeded run's digest is bit-identical at any worker count, and it
// covers every sample the run took.
//
// For live export while a deterministic sim is running, the recorder
// can additionally publish a Snapshot at each tick behind an atomic
// pointer (PublishSnapshots turns it on): a read-side convenience that
// does not feed back into the sim.
type Recorder struct {
	reg *Registry

	mu       sync.Mutex
	sum      FNV
	samples  uint64
	lastTick int64
	ticks    atomic.Uint64

	publish atomic.Bool
	latest  atomic.Pointer[Snapshot]
}

// sampleInterval is the minimum virtual time between samples.
const sampleInterval = time.Millisecond

// NewRecorder creates a recorder over reg.
func NewRecorder(reg *Registry) *Recorder {
	return &Recorder{reg: reg, sum: NewFNV()}
}

// Registry returns the registry the recorder samples.
func (r *Recorder) Registry() *Registry { return r.reg }

// PublishSnapshots makes every tick from now on also publish the full
// barrier-consistent snapshot that Snapshot, and so /metrics, then serves.
func (r *Recorder) PublishSnapshots() { r.publish.Store(true) }

// Tick samples every non-volatile family at virtual time nowNanos: it
// folds the time, then each family's name (as its 64-bit FNV-1a,
// computed once at registration) and value in registration order (a
// histogram's count, p50, p95 and p99) into the digest.
// Called from the engine's barrier (single-threaded, writers
// quiescent). sampleInterval gating keys on virtual time, so tick counts
// are a function of the simulated timeline, not of execution.
func (r *Recorder) Tick(nowNanos int64) {
	r.mu.Lock()
	if r.ticks.Load() > 0 && nowNanos-r.lastTick < int64(sampleInterval) {
		r.mu.Unlock()
		return
	}
	r.lastTick = nowNanos
	r.ticks.Add(1)
	r.sum.U64(uint64(nowNanos))
	for _, f := range r.reg.list() {
		if f.volatile {
			continue
		}
		r.sum.U64(f.id)
		r.samples++
		switch f.kind {
		case KindCounterFunc:
			r.sum.U64(f.cfn())
		case KindGaugeFunc:
			r.sum.U64(math.Float64bits(f.gfn()))
		case KindHistogram:
			h := f.hist.Snap()
			r.sum.U64(h.Count)
			r.sum.U64(math.Float64bits(h.P50))
			r.sum.U64(math.Float64bits(h.P95))
			r.sum.U64(math.Float64bits(h.P99))
		}
	}
	r.mu.Unlock()

	if r.publish.Load() {
		r.latest.Store(r.reg.snapshotAt(nowNanos))
	}
}

// Ticks reports how many samples were taken.
func (r *Recorder) Ticks() uint64 { return r.ticks.Load() }

// Digest returns the running hash of every sample taken so far and the
// number of family values folded into it (one per non-volatile family
// per tick).
func (r *Recorder) Digest() (sum, samples uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum.Sum64(), r.samples
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

// FNV is a 64-bit FNV-1a accumulator: the one behind every determinism
// fingerprint (the recorder's digest, eval's observation digests). A
// word goes in as its 8 little-endian bytes, a string followed by a zero
// byte so adjacent fields cannot alias; over the same bytes it equals
// hash/fnv's New64a. The zero value is not a valid start: use NewFNV.
type FNV uint64

const fnvPrime = 1099511628211

// NewFNV returns an accumulator over no bytes (the FNV-1a offset basis).
func NewFNV() FNV { return 14695981039346656037 }

// Str folds s and its zero terminator.
func (h *FNV) Str(s string) {
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ FNV(s[i])) * fnvPrime
	}
	*h = x * fnvPrime // x ^ 0 == x
}

// U64 folds v's 8 little-endian bytes.
func (h *FNV) U64(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x = (x ^ FNV(byte(v))) * fnvPrime
		v >>= 8
	}
	*h = x
}

// Byte folds one byte.
func (h *FNV) Byte(b byte) { *h = (*h ^ FNV(b)) * fnvPrime }

// Sum64 returns the hash of everything folded so far.
func (h FNV) Sum64() uint64 { return uint64(h) }
