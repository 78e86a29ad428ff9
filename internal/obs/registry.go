// Package obs is the repo's observability plane: a registry of named
// counters, gauges and log-bucketed histograms, plus the epoch recorder,
// the flight recorder and their HTTP export.
//
// obs owns no counts. Code keeps its counts where it writes them — a
// netem shard's fields, the data plane's atomics, an audit vantage's
// trials — and registers a CounterFunc or GaugeFunc that reads them at
// snapshot time (epoch recorder ticks, HTTP scrapes, post-run digests).
// On the deterministic simulation path those reads happen at quiescent
// points (epoch barriers, post-run); code whose counters are read live,
// while its writers run, makes the func safe to call then. A Histogram
// is the one kind whose storage obs holds: it has a single writer,
// updated with plain field ops and read with atomic loads at the same
// quiescent points.
//
// The package deliberately imports nothing from the rest of the repo so
// every layer (netem, core, dpi, audit, trafficgen, simnet, daemons) can
// depend on it.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind labels what a registered family measures.
type Kind uint8

// Metric kinds.
const (
	KindCounterFunc Kind = iota + 1
	KindGaugeFunc
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounterFunc:
		return "counter"
	case KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// family is one registered metric: a name (optionally carrying a fixed
// Prometheus label set), a kind, and either a histogram or a read-time
// callback.
type family struct {
	name     string // full name, e.g. `dpi_seen_packets_total{class="voip"}`
	id       uint64 // FNV-1a of name: what the Recorder folds for it
	base     string // name without labels
	labels   string // `class="voip"` or ""
	help     string
	kind     Kind
	volatile bool

	hist *Histogram
	cfn  func() uint64
	gfn  func() float64
}

// Registry holds metric families in registration order. Registration is
// get-or-create: asking for an existing name with the same kind keeps
// the family already registered (its func, its histogram), so a family
// several writers share is registered once over all of them.
// Registration takes a lock; counting never touches the registry.
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
// (epoch wall latency, spin time): the epoch Recorder leaves volatile
// families out of its deterministic digest so that seeded runs stay
// bit-identical with recording on. Volatile metrics still appear in
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
	id := NewFNV()
	id.Str(name)
	f := &family{name: name, id: id.Sum64(), base: base, labels: labels, help: help, kind: kind}
	for _, o := range opts {
		o(f)
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f, true
}

// Histogram registers (or returns) a log-bucketed histogram family. The
// histogram has a single writer.
func (r *Registry) Histogram(name, help string, opts ...Option) *Histogram {
	f, fresh := r.register(name, help, KindHistogram, opts)
	if fresh {
		f.hist = &Histogram{}
	}
	return f.hist
}

// CounterFunc registers a counter whose value is computed at read time
// from counts its writers keep (a netem shard's fields, the audit
// prober's trials, the data plane's atomics). fn runs during Snapshot:
// on the sim path that is an epoch barrier (sources quiescent); where the
// counts are read live, fn must be safe to call while they are written.
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

// Metric is one family's value in a snapshot.
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
	// Value is the counter or gauge value (a histogram's count).
	Value float64 `json:"value"`
	// Hist carries histogram state; nil for scalar kinds.
	Hist *HistSnap `json:"hist,omitempty"`
}

// Snapshot is a view of every registered family at one instant.
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

// Snapshot reads every family at this instant: func families invoke
// their callbacks, histograms are read with atomic loads (exact when
// their writer is quiescent — epoch barrier, post-run — and merely
// torn-free otherwise).
func (r *Registry) Snapshot() *Snapshot {
	return r.snapshotAt(time.Now().UnixNano())
}

// list returns the families registered so far. Registration only
// appends, so the returned prefix never changes under its reader.
func (r *Registry) list() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.families
}

func (r *Registry) snapshotAt(ts int64) *Snapshot {
	fams := r.list()
	snap := &Snapshot{TimeNanos: ts, Metrics: make([]Metric, 0, len(fams))}
	for _, f := range fams {
		m := Metric{Name: f.name, Base: f.base, Labels: f.labels,
			Help: f.help, Kind: f.kind, Type: f.kind.String(), Volatile: f.volatile}
		switch f.kind {
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
