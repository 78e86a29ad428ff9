// Package obs is the repo's observability plane: a registry of named
// counters, gauges and log-bucketed histograms whose hot-path update is
// a plain field increment on a cache-line-padded, shard-local stripe —
// zero allocations, and no atomics on the deterministic simulation path.
// Merging across stripes happens only at read time (snapshots, epoch
// recorder ticks, HTTP scrapes), so a million-host run never serializes
// its counters at a barrier.
//
// Two write disciplines share one metric type:
//
//   - Plain stripes (Counter, Gauge, HistStripe) are single-writer: each
//     netem shard or eval experiment owns its stripe and updates it with
//     non-atomic field ops. Readers use atomic loads, and correctness
//     relies on reads happening at quiescent points (epoch barriers,
//     post-run) — exactly when the netem engine reads them.
//   - Atomic stripes (AtomicCounter, AtomicGauge) are the same memory
//     updated with atomic RMW ops, for genuinely concurrent writers:
//     neutralizerd's workers (core.SessionCacheMetrics). Convert with
//     CounterVec.AtomicStripe / GaugeVec.AtomicStripe.
//
// The package deliberately imports nothing from the rest of the repo so
// every layer (netem, core, dpi, audit, trafficgen, simnet, daemons) can
// depend on it.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind labels what a registered family measures.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	KindCounterFunc
	KindGaugeFunc
)

func (k Kind) String() string {
	switch k {
	case KindCounter, KindCounterFunc:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counter is one write stripe of a counter family. Updates are plain
// field ops: the stripe must have exactly one writer (a netem shard, an
// eval goroutine). Readers (Value, Snapshot) use atomic loads and are
// exact only at quiescent points — which is when the engine reads them.
// The struct is padded so neighboring stripes never share a cache line.
type Counter struct {
	v uint64
	_ [56]byte
}

// Inc adds one. Single-writer; zero allocations, no atomics.
func (c *Counter) Inc() { c.v++ }

// Add adds n. Single-writer; zero allocations, no atomics.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reads the stripe (atomic load; exact at quiescent points).
func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.v) }

// AtomicCounter is a Counter stripe written with atomic ops, for
// concurrent writers (core.Pool workers, the daemon path).
type AtomicCounter Counter

// Add atomically adds n.
func (c *AtomicCounter) Add(n uint64) { atomic.AddUint64(&c.v, n) }

// Gauge is one write stripe of a gauge family (single-writer, padded).
// The family's merged value is the sum of its stripes, which is the
// useful merge for per-shard levels (heap depth, pool occupancy).
type Gauge struct {
	v int64
	_ [56]byte
}

// Set stores x. Single-writer.
func (g *Gauge) Set(x int64) { g.v = x }

// family is one registered metric: a name (optionally carrying a fixed
// Prometheus label set), a kind, and either striped storage or a
// read-time callback.
type family struct {
	name     string // full name, e.g. `dpi_seen_packets_total{class="voip"}`
	base     string // name without labels
	labels   string // `class="voip"` or ""
	help     string
	kind     Kind
	volatile bool

	counter *CounterVec
	gauge   *GaugeVec
	hist    *HistogramVec
	cfn     func() uint64
	gfn     func() float64
}

// Registry holds metric families in registration order. Registration is
// get-or-create: asking for an existing name with the same kind returns
// the already-registered vector, so independent subsystems can share a
// family without coordination. Registration takes a lock; updates never
// do.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Option adjusts a family at registration time.
type Option func(*family)

// Volatile marks a family whose values depend on wall-clock execution
// (epoch wall latency, spin time): the epoch Recorder excludes volatile
// families from its deterministic time-series rings so that seeded runs
// stay bit-identical with recording on. Volatile metrics still appear in
// live snapshots and exports.
func Volatile() Option { return func(f *family) { f.volatile = true } }

// splitName separates `base{labels}` registration syntax.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

func validBase(base string) bool {
	if base == "" {
		return false
	}
	for i, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register is the get-or-create core shared by all metric constructors.
func (r *Registry) register(name, help string, kind Kind, opts []Option) (*family, bool) {
	base, labels := splitName(name)
	if !validBase(base) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		return f, false
	}
	f := &family{name: name, base: base, labels: labels, help: help, kind: kind}
	for _, o := range opts {
		o(f)
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f, true
}

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, opts ...Option) *CounterVec {
	f, fresh := r.register(name, help, KindCounter, opts)
	if fresh {
		f.counter = &CounterVec{fam: f}
	}
	return f.counter
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, opts ...Option) *GaugeVec {
	f, fresh := r.register(name, help, KindGauge, opts)
	if fresh {
		f.gauge = &GaugeVec{fam: f}
	}
	return f.gauge
}

// Histogram registers (or returns) a log-bucketed histogram family.
func (r *Registry) Histogram(name, help string, opts ...Option) *HistogramVec {
	f, fresh := r.register(name, help, KindHistogram, opts)
	if fresh {
		f.hist = &HistogramVec{fam: f}
	}
	return f.hist
}

// CounterFunc registers a counter whose value is computed at read time —
// the bridge for subsystems that already keep their own counters
// (dpi.Engine, core.Stats, simnet.Net). fn runs during Snapshot: on the
// sim path that is an epoch barrier (sources quiescent), on the daemon
// path fn must be safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, opts ...Option) {
	f, fresh := r.register(name, help, KindCounterFunc, opts)
	if fresh {
		f.cfn = fn
	}
}

// GaugeFunc registers a gauge computed at read time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, opts ...Option) {
	f, fresh := r.register(name, help, KindGaugeFunc, opts)
	if fresh {
		f.gfn = fn
	}
}

// CounterVec is a counter family: an append-only set of padded stripes.
// Register once at setup; hand each single-writer domain (shard, worker,
// flow source) its own stripe.
type CounterVec struct {
	fam     *family
	mu      sync.Mutex
	stripes []*Counter
}

// Stripe returns stripe i, growing the family as needed. Stripe pointers
// remain valid forever; call at setup, not on the hot path.
func (v *CounterVec) Stripe(i int) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.stripes) <= i {
		v.stripes = append(v.stripes, &Counter{})
	}
	return v.stripes[i]
}

// NewStripe appends and returns a fresh stripe (for dynamic writer sets,
// e.g. one stripe per traffic source).
func (v *CounterVec) NewStripe() *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := &Counter{}
	v.stripes = append(v.stripes, c)
	return c
}

// AtomicStripe returns stripe i for concurrent writers.
func (v *CounterVec) AtomicStripe(i int) *AtomicCounter {
	return (*AtomicCounter)(v.Stripe(i))
}

// Value merges the family: the sum of all stripes.
func (v *CounterVec) Value() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n uint64
	for _, c := range v.stripes {
		n += atomic.LoadUint64(&c.v)
	}
	return n
}

// GaugeVec is a gauge family; merged value is the sum of stripes.
type GaugeVec struct {
	fam     *family
	mu      sync.Mutex
	stripes []*Gauge
}

// Stripe returns stripe i, growing the family as needed.
func (v *GaugeVec) Stripe(i int) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.stripes) <= i {
		v.stripes = append(v.stripes, &Gauge{})
	}
	return v.stripes[i]
}

// Value merges the family: the sum of all stripes.
func (v *GaugeVec) Value() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, g := range v.stripes {
		n += atomic.LoadInt64(&g.v)
	}
	return n
}

// Metric is one family's merged value in a snapshot.
type Metric struct {
	// Name is the full registered name including any label set.
	Name string `json:"name"`
	// Base is the name without labels; families sharing a base are one
	// Prometheus metric with different label sets.
	Base string `json:"-"`
	// Labels is the raw label body (`class="voip"`), empty if none.
	Labels string `json:"labels,omitempty"`
	// Help is the registration help string.
	Help string `json:"-"`
	// Kind is the metric kind.
	Kind Kind `json:"-"`
	// Type is Kind rendered for JSON consumers.
	Type string `json:"type"`
	// Volatile marks wall-clock-dependent families (see Volatile).
	Volatile bool `json:"volatile,omitempty"`
	// Value is the merged value (counters, gauges, funcs).
	Value float64 `json:"value"`
	// Hist carries histogram state; nil for scalar kinds.
	Hist *HistSnap `json:"hist,omitempty"`
}

// Snapshot is a merged view of every registered family at one instant.
type Snapshot struct {
	// TimeNanos is the snapshot timestamp: wall time for live registry
	// snapshots, virtual sim time for recorder-published ones.
	TimeNanos int64 `json:"ts"`
	// Metrics lists families in registration order.
	Metrics []Metric `json:"metrics"`
}

// Get returns the metric with the given full name, or nil.
func (s *Snapshot) Get(name string) *Metric {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Snapshot merges every family at this instant. Plain stripes are read
// with atomic loads: values are exact when writers are quiescent (epoch
// barrier, post-run) and merely torn-free otherwise. Func families
// invoke their callbacks.
func (r *Registry) Snapshot() *Snapshot {
	return r.snapshotAt(time.Now().UnixNano(), false)
}

func (r *Registry) snapshotAt(ts int64, skipVolatile bool) *Snapshot {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	snap := &Snapshot{TimeNanos: ts, Metrics: make([]Metric, 0, len(fams))}
	for _, f := range fams {
		if skipVolatile && f.volatile {
			continue
		}
		m := Metric{Name: f.name, Base: f.base, Labels: f.labels,
			Help: f.help, Kind: f.kind, Type: f.kind.String(), Volatile: f.volatile}
		switch f.kind {
		case KindCounter:
			m.Value = float64(f.counter.Value())
		case KindGauge:
			m.Value = float64(f.gauge.Value())
		case KindCounterFunc:
			m.Value = float64(f.cfn())
		case KindGaugeFunc:
			m.Value = f.gfn()
		case KindHistogram:
			m.Hist = f.hist.Snap()
			m.Value = float64(m.Hist.Count)
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}
