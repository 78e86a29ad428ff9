package dpi

import (
	"sync"
	"time"

	"netneutral/internal/netem"
)

// The flow tracker's constants, sized for a transit router.
const (
	// maxFlows bounds a table's memory: the slab of flow entries is
	// preallocated at this size and never grows.
	maxFlows = 10240
	// minPackets is how many packets a flow must show before its first
	// classification, and reclassifyEvery re-runs the classifier every
	// this many packets after it. Classify early and reclassify often:
	// sparse flows (web fetches during think time) must still be judged,
	// and on their mature features, not their first burst.
	minPackets      = 8
	reclassifyEvery = 8
	// windowPkts is the decayed feature window.
	windowPkts = 512
	// burstGap is the inter-arrival threshold below which a gap counts
	// as intra-burst.
	burstGap = time.Millisecond
	// idleTimeout marks flows eligible for eviction preference once idle
	// this long.
	idleTimeout = 10 * time.Second
)

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
	cls  *Classifier
	idx  map[netem.FlowKey]int32
	slab []FlowEntry
	hand int
}

// NewFlowTable creates a table. cls assigns classes as flows mature;
// nil tracks features without classifying (the calibration/training
// mode).
func NewFlowTable(cls *Classifier) *FlowTable {
	return &FlowTable{
		cls:  cls,
		idx:  make(map[netem.FlowKey]int32, maxFlows),
		slab: make([]FlowEntry, 0, maxFlows),
	}
}

// Observe folds one packet into its flow and returns the flow's current
// class (ClassUnknown until minPackets have been seen or when no
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
	e.Feat.Update(size, forward, nowNanos)
	if t.cls != nil && e.Feat.Pkts >= minPackets {
		if (e.Feat.Pkts-minPackets)%reclassifyEvery == 0 {
			e.Class, e.Score = t.cls.Classify(&e.Feat)
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
// idle past idleTimeout wins; failing that, the stalest of the first
// few probed. O(probes), not O(flows), per eviction.
func (t *FlowTable) evictLocked(nowNanos int64) int32 {
	const probes = 16
	idleBefore := nowNanos - int64(idleTimeout)
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
