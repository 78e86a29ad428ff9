package dpi

import (
	"sync"
	"time"

	"netneutral/internal/netem"
)

// Config parameterizes a FlowTable. The zero value is filled with
// defaults suitable for a transit router.
type Config struct {
	// MaxFlows bounds the table's memory: the slab of flow entries is
	// preallocated at this size and never grows (default 10240).
	MaxFlows int
	// MinPackets is how many packets a flow must show before its first
	// classification (default 16).
	MinPackets int
	// ReclassifyEvery re-runs the classifier every this many packets
	// after the first classification (default 64).
	ReclassifyEvery int
	// WindowPkts is the decayed feature window (default 512; negative
	// disables decay so features accumulate over the flow's whole
	// life).
	WindowPkts int
	// BurstGap is the inter-arrival threshold below which a gap counts
	// as intra-burst (default 1ms).
	BurstGap time.Duration
	// IdleTimeout marks flows eligible for eviction preference once idle
	// this long (default 10s).
	IdleTimeout time.Duration
	// Classifier assigns classes as flows mature; nil tracks features
	// without classifying (the calibration/training mode).
	Classifier *Classifier
}

// defaultWindowPkts is the zero-value decayed feature window.
const defaultWindowPkts = 512

func (c *Config) fill() {
	if c.MaxFlows <= 0 {
		c.MaxFlows = 10240
	}
	if c.MinPackets <= 0 {
		c.MinPackets = 16
	}
	if c.ReclassifyEvery <= 0 {
		c.ReclassifyEvery = 64
	}
	if c.WindowPkts == 0 {
		c.WindowPkts = defaultWindowPkts
	}
	if c.BurstGap <= 0 {
		c.BurstGap = time.Millisecond
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
}

// FlowEntry is one tracked flow.
type FlowEntry struct {
	Key   netem.FlowKey
	Class Class
	// Score is the classifier distance at the last classification.
	Score float64
	Feat  Features
	used  bool
}

// FlowTable tracks per-flow features in a fixed-size slab. Safe for
// concurrent use (one mutex; the per-packet critical section is a map
// lookup plus in-place arithmetic, so contention, not hold time, is the
// scaling limit — shard tables per worker if that ever matters).
type FlowTable struct {
	mu   sync.Mutex
	cfg  Config
	idx  map[netem.FlowKey]int32
	slab []FlowEntry
	hand int
}

// NewFlowTable creates a table; see Config for defaults.
func NewFlowTable(cfg Config) *FlowTable {
	cfg.fill()
	return &FlowTable{
		cfg:  cfg,
		idx:  make(map[netem.FlowKey]int32, cfg.MaxFlows),
		slab: make([]FlowEntry, 0, cfg.MaxFlows),
	}
}

// Observe folds one packet into its flow and returns the flow's current
// class (ClassUnknown until MinPackets have been seen or when no
// classifier is configured). The existing-flow path performs no
// allocation: a map lookup, the feature arithmetic, and (periodically)
// a stack-array classification.
func (t *FlowTable) Observe(key netem.FlowKey, forward bool, size int, nowNanos int64) Class {
	class, _ := t.ObserveN(key, forward, size, nowNanos)
	return class
}

// ObserveN is Observe returning also the flow's current (windowed)
// packet count — what probe-evasion enforcement gates on: a stealthy
// ISP exempts flows younger than a threshold so short measurement
// probes complete clean.
func (t *FlowTable) ObserveN(key netem.FlowKey, forward bool, size int, nowNanos int64) (Class, uint64) {
	t.mu.Lock()
	i, ok := t.idx[key]
	if !ok {
		i = t.insertLocked(key, nowNanos)
	}
	e := &t.slab[i]
	e.Feat.Update(size, forward, nowNanos, int64(t.cfg.BurstGap), t.cfg.WindowPkts)
	if cls := t.cfg.Classifier; cls != nil && e.Feat.Pkts >= uint64(t.cfg.MinPackets) {
		since := e.Feat.Pkts - uint64(t.cfg.MinPackets)
		if since%uint64(t.cfg.ReclassifyEvery) == 0 {
			e.Class, e.Score = cls.Classify(&e.Feat)
		}
	}
	class, pkts := e.Class, e.Feat.Pkts
	t.mu.Unlock()
	return class, pkts
}

// insertLocked finds a slot for a new flow, evicting if the slab is
// full, and registers the key. Returns the slot index.
func (t *FlowTable) insertLocked(key netem.FlowKey, nowNanos int64) int32 {
	var i int32
	if len(t.slab) < cap(t.slab) {
		t.slab = t.slab[:len(t.slab)+1]
		i = int32(len(t.slab) - 1)
	} else {
		i = t.evictLocked(nowNanos)
		delete(t.idx, t.slab[i].Key)
	}
	t.slab[i] = FlowEntry{Key: key, used: true}
	t.idx[key] = i
	return i
}

// evictLocked picks a victim slot with a clock sweep: the first flow
// idle past IdleTimeout wins; failing that, the stalest of the first
// few probed. O(probes), not O(flows), per eviction.
func (t *FlowTable) evictLocked(nowNanos int64) int32 {
	const probes = 16
	idleBefore := nowNanos - int64(t.cfg.IdleTimeout)
	oldest := int32(t.hand % len(t.slab))
	oldestSeen := int64(1<<63 - 1)
	for p := 0; p < len(t.slab); p++ {
		i := int32((t.hand + p) % len(t.slab))
		last := t.slab[i].Feat.LastSeenNanos()
		if last <= idleBefore {
			t.hand = int(i) + 1
			return i
		}
		if p < probes && last < oldestSeen {
			oldest, oldestSeen = i, last
		}
		if p >= probes {
			break
		}
	}
	t.hand = int(oldest) + 1
	return oldest
}

// ClassOf reports the current class of a flow, if tracked.
func (t *FlowTable) ClassOf(key netem.FlowKey) (Class, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.idx[key]
	if !ok {
		return ClassUnknown, false
	}
	return t.slab[i].Class, true
}

// Each visits every tracked flow under the table lock. The *FlowEntry
// view is valid only for the duration of the call — copy what you keep.
func (t *FlowTable) Each(fn func(e *FlowEntry)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.slab {
		if t.slab[i].used {
			fn(&t.slab[i])
		}
	}
}
