package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// FlightRecorder is the netem engine's trace sink: a bounded ring of
// sampled packet events per shard stripe, cheap enough to leave on at
// metro scale. Sampling is deterministic head sampling — every
// Nth event a stripe sees, decided by a per-stripe counter, never by a
// PRNG — plus per-flow tagging: events of a tagged flow are always
// recorded. Because stripes are per shard and the sampling decision is
// a pure function of the shard's own event sequence, the recorded set
// is bit-identical at every worker count; the merged view re-sorts by
// (time, shard, seq), a total order that is a pure function of event
// content.
type FlightRecorder struct {
	sampleEvery uint64
	ringSize    int
	// flowAll / flowBar implement flow-keyed sampling: record every
	// event whose flow hash is below flowBar (flowAll short-circuits the
	// comparison for fraction 1).
	flowAll bool
	flowBar uint64

	mu      sync.Mutex
	stripes []*FlightStripe
	tags    map[uint64]struct{}
	tagged  bool
}

// FlightConfig sizes a FlightRecorder.
type FlightConfig struct {
	// SampleEvery records one of every N events per stripe (default 64;
	// 1 records everything).
	SampleEvery int
	// RingSize bounds each stripe's ring in events (default 4096); old
	// events are evicted, counted, never blocking.
	RingSize int
	// SampleFlows, in (0, 1], selects a deterministic fraction of flows
	// whose every event is recorded, keyed on the flow hash itself
	// (flow < fraction·2^64) — so the selected set is a pure function of
	// flow identity, bit-identical at any worker count. 1 records every
	// flow ("all" tracing); 0 (the default) disables flow-keyed
	// sampling. Composes with head sampling and tags.
	SampleFlows float64
}

// TraceRec is one sampled packet event with per-hop delay attribution:
// the *_ns components decompose the virtual time since the journey's
// previous event, so summing them over a fully recorded journey yields
// the end-to-end delay exactly.
type TraceRec struct {
	// TimeNanos is the virtual time of the event.
	TimeNanos int64
	// Flow is the keyed flow hash (netem computes it from the canonical
	// FlowKey); 0 if the packet had no parseable flow.
	Flow uint64
	// Journey identifies the packet journey the event belongs to,
	// stamped at origination.
	Journey uint64
	// Seq is the stripe-local emission sequence (merge tiebreaker).
	Seq uint64
	// Node is the stable node id where the event fired.
	Node int32
	// Shard is the stripe (netem shard) that recorded the event.
	Shard int32
	// Size is the packet length in bytes.
	Size int32
	// Kind is the trace kind (netem.TraceKind numbering).
	Kind uint8
	// QueueNanos..ProcNanos attribute the delay since the journey's
	// previous event: egress-queue wait, link serialization, link
	// propagation, policy-imposed delay, endpoint processing.
	QueueNanos     int64
	SerializeNanos int64
	PropagateNanos int64
	PolicyNanos    int64
	ProcNanos      int64
	// Cause and Class attribute the policy component (netem.PolicyCause
	// numbering / dpi class numbering).
	Cause uint8
	Class uint8
}

// AttrTotalNanos sums the attributed delay components.
func (r *TraceRec) AttrTotalNanos() int64 {
	return r.QueueNanos + r.SerializeNanos + r.PropagateNanos + r.PolicyNanos + r.ProcNanos
}

// NewFlightRecorder creates a flight recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	f := &FlightRecorder{
		sampleEvery: uint64(cfg.SampleEvery),
		ringSize:    cfg.RingSize,
		tags:        make(map[uint64]struct{}),
	}
	switch {
	case cfg.SampleFlows >= 1:
		f.flowAll = true
	case cfg.SampleFlows > 0:
		f.flowBar = uint64(cfg.SampleFlows * float64(^uint64(0)))
	}
	return f
}

// Tag marks a flow hash as always-recorded. Call during setup, before
// the run: the tag set is read lock-free from every stripe.
func (f *FlightRecorder) Tag(flow uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tags[flow] = struct{}{}
	f.tagged = true
	for _, st := range f.stripes {
		st.tagged = true
	}
}

// Stripe returns (creating as needed) the write stripe for shard i.
// Stripe pointers remain valid forever.
func (f *FlightRecorder) Stripe(i int) *FlightStripe {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.stripes) <= i {
		f.stripes = append(f.stripes, &FlightStripe{
			fr:     f,
			shard:  int32(len(f.stripes)),
			ring:   make([]TraceRec, 0, f.ringSize),
			tagged: f.tagged,
		})
	}
	return f.stripes[i]
}

// FlightStripe is one shard's ring. Single-writer: only the owning
// shard records into it during a run.
type FlightStripe struct {
	fr     *FlightRecorder
	shard  int32
	tagged bool

	ring    []TraceRec
	w       int // next write slot once the ring is full
	seen    uint64
	sampled uint64
	evicted uint64
	seq     uint64
}

// Sample counts one event and reports whether head sampling selects it.
// The decision depends only on the stripe's own event count — replay-
// stable at any worker count.
func (st *FlightStripe) Sample() bool {
	st.seen++
	return st.fr.sampleEvery == 1 || st.seen%st.fr.sampleEvery == 1
}

// FlowAware reports whether any per-flow selection — tags or flow-keyed
// sampling — exists, so callers can skip flow hashing entirely when the
// event lost head sampling and no flow could rescue it.
func (st *FlightStripe) FlowAware() bool {
	return st.tagged || st.fr.flowAll || st.fr.flowBar > 0
}

// WantFlow reports whether per-flow selection records events of flow:
// flow-keyed sampling (a deterministic threshold on the hash) or an
// explicit tag.
func (st *FlightStripe) WantFlow(flow uint64) bool {
	if st.fr.flowAll || flow < st.fr.flowBar {
		return true
	}
	return st.TaggedFlow(flow)
}

// TaggedFlow reports whether the given flow hash is tagged.
func (st *FlightStripe) TaggedFlow(flow uint64) bool {
	if !st.tagged {
		return false
	}
	_, ok := st.fr.tags[flow]
	return ok
}

// Record appends rec to the ring, evicting the oldest event when full.
// The stripe stamps Shard and Seq itself.
func (st *FlightStripe) Record(rec TraceRec) {
	st.seq++
	st.sampled++
	rec.Shard = st.shard
	rec.Seq = st.seq
	if len(st.ring) < cap(st.ring) {
		st.ring = append(st.ring, rec)
		return
	}
	st.ring[st.w] = rec
	st.w = (st.w + 1) % len(st.ring)
	st.evicted++
}

// Events returns every retained event across stripes, merged into the
// engine's canonical (time, shard, seq) total order — independent of
// worker count. Call at quiescence (post-run or an epoch barrier).
func (f *FlightRecorder) Events() []TraceRec {
	f.mu.Lock()
	stripes := make([]*FlightStripe, len(f.stripes))
	copy(stripes, f.stripes)
	f.mu.Unlock()
	var out []TraceRec
	for _, st := range stripes {
		out = append(out, st.ring...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TimeNanos != b.TimeNanos {
			return a.TimeNanos < b.TimeNanos
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}

// Seen totals events offered across stripes (atomic loads; exact at
// quiescence).
func (f *FlightRecorder) Seen() uint64 {
	return f.sumStripes(func(st *FlightStripe) *uint64 { return &st.seen })
}

// Sampled totals events recorded across stripes.
func (f *FlightRecorder) Sampled() uint64 {
	return f.sumStripes(func(st *FlightStripe) *uint64 { return &st.sampled })
}

// Evicted totals ring evictions across stripes.
func (f *FlightRecorder) Evicted() uint64 {
	return f.sumStripes(func(st *FlightStripe) *uint64 { return &st.evicted })
}

func (f *FlightRecorder) sumStripes(field func(*FlightStripe) *uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n uint64
	for _, st := range f.stripes {
		n += atomic.LoadUint64(field(st))
	}
	return n
}

// Register exposes the recorder's own health counters on a registry.
func (f *FlightRecorder) Register(reg *Registry) {
	reg.CounterFunc("obs_flight_seen_total",
		"Packet events offered to the flight recorder.", f.Seen)
	reg.CounterFunc("obs_flight_recorded_total",
		"Packet events retained by sampling or flow tags.", f.Sampled)
	reg.CounterFunc("obs_flight_evicted_total",
		"Recorded events evicted by ring wrap.", f.Evicted)
}
