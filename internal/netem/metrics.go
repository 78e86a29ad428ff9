package netem

import (
	"sync/atomic"
	"time"

	"netneutral/internal/obs"
)

// The engine's telemetry is counted where it happens, on memory its one
// writer owns: each shard's fields (events run; packets delivered,
// forwarded, dropped; link sends and starts), its event queue's and
// packet pool's, the coordinator's epoch and mailbox counts, and each
// FluidFlow's and DeliveryCount's own tally. Counting is a plain field
// increment — no atomics, no allocation, no pointer to chase. The
// Simulator's registry holds no counts: every netem_* family is a
// CounterFunc or GaugeFunc that sums them at read time — at epoch
// barriers and after runs, when the writers are quiescent — and
// Forwarded, Dropped, PoolStats and the other accessors return the same
// sums. Per-link counts exist only as per-shard aggregates, because a
// family per link would explode cardinality on metro topologies.
//
// Determinism contract: every non-volatile metric is a pure function of
// deterministic sim state, so with a fixed seed the registry's values —
// and an attached Recorder's digest — are bit-identical at
// any worker count. The one wall-clock family the engine keeps
// (netem_epoch_wall_ns) is registered obs.Volatile so the recorder leaves
// it out.

// sum totals one count over its writers with atomic loads: exact at
// barriers and after runs, when the writers are quiescent.
func sum[W any](writers []W, count func(W) *uint64) uint64 {
	var n uint64
	for _, w := range writers {
		n += atomic.LoadUint64(count(w))
	}
	return n
}

// registerMetrics registers the engine's families on s.reg, in the order
// recorders and digests see them.
func (s *Simulator) registerMetrics() {
	reg := s.reg
	shardCount := func(name, help string, count func(*shard) *uint64, opts ...obs.Option) {
		reg.CounterFunc(name, help, func() uint64 { return sum(s.shards, count) }, opts...)
	}
	shardLevel := func(name, help string, level func(*shard) int) {
		reg.GaugeFunc(name, help, func() float64 {
			n := 0
			for _, sh := range s.shards {
				n += level(sh)
			}
			return float64(n)
		})
	}
	reg.CounterFunc("netem_events_total", "Events executed across all shard event loops.", s.EventsProcessed)
	shardCount("netem_delivered_packets_total", "Packets locally delivered anywhere in the network.",
		func(sh *shard) *uint64 { return &sh.nDelivered })
	reg.CounterFunc("netem_forwarded_packets_total", "Router forwarding decisions (one per transit hop).", s.Forwarded)
	reg.CounterFunc("netem_dropped_packets_total", "Packets dropped (queue, policy, no-route, TTL).", s.Dropped)
	shardCount("netem_pool_allocated_buffers_total", "Packet buffers ever created across shard pools.",
		func(sh *shard) *uint64 { return &sh.pool.allocated })
	shardCount("netem_pool_checkouts_total", "Packet buffer checkouts (pool hits plus misses).",
		func(sh *shard) *uint64 { return &sh.pool.gets })
	shardCount("netem_link_tx_packets_total", "Packets that completed link serialization.",
		func(sh *shard) *uint64 { return &sh.nLinkTx })
	shardCount("netem_link_queue_drops_total", "Packets dropped by full link egress queues.",
		func(sh *shard) *uint64 { return &sh.nLinkQDrop })
	shardLevel("netem_heap_depth",
		"Pending events across shard event queues (lanes plus heap), sampled at barriers.",
		func(sh *shard) int { return sh.events.len() })
	shardLevel("netem_pool_free_buffers", "Free packet buffers across shard pools, sampled at barriers.",
		func(sh *shard) int { return len(sh.pool.free) })
	// Which structure took a push is execution strategy, not sim state:
	// volatile, so recorders and observation digests stay comparable
	// across engine versions.
	const pushHelp = "Event pushes by the structure that took them: a per-delay FIFO lane, or the fallback heap."
	shardCount(`netem_queue_pushes_total{path="lane"}`, pushHelp,
		func(sh *shard) *uint64 { return &sh.events.inLane }, obs.Volatile())
	shardCount(`netem_queue_pushes_total{path="heap"}`, pushHelp,
		func(sh *shard) *uint64 { return &sh.events.inHeap }, obs.Volatile())
	// Likewise how a serialization started and which pairs a barrier visited.
	const startHelp = "Link serializations started with the packet in hand on an idle line (direct) or from a queue's Dequeue (queued)."
	shardCount(`netem_link_starts_total{path="direct"}`, startHelp,
		func(sh *shard) *uint64 { return &sh.nStartDirect }, obs.Volatile())
	shardCount(`netem_link_starts_total{path="queued"}`, startHelp,
		func(sh *shard) *uint64 { return &sh.nStartQueued }, obs.Volatile())
	const mailHelp = "Ordered shard pairs per barrier: drained (the source staged an event or a homebound buffer) or silent (never visited)."
	reg.CounterFunc(`netem_barrier_mailboxes_total{state="drained"}`, mailHelp,
		func() uint64 { return atomic.LoadUint64(&s.mailDrained) }, obs.Volatile())
	reg.CounterFunc(`netem_barrier_mailboxes_total{state="silent"}`, mailHelp,
		func() uint64 { return atomic.LoadUint64(&s.mailSilent) }, obs.Volatile())
	reg.CounterFunc("netem_epochs_total", "Conservative epochs (barrier rounds) executed.",
		func() uint64 { return atomic.LoadUint64(&s.epochs) })
	s.epochWall = reg.Histogram("netem_epoch_wall_ns",
		"Wall-clock nanoseconds per epoch; volatile, excluded from deterministic recording.",
		obs.Volatile())
	reg.GaugeFunc("netem_lookahead_ns",
		"Conservative lookahead: minimum cross-shard link delay (0 when no links cross shards).",
		func() float64 { return float64(s.lookahead) })
}

// Metrics returns the simulator's metric registry. Experiments and
// daemons register their own families here (get-or-create, so shared
// names compose); exporters snapshot it at barriers or after runs.
func (s *Simulator) Metrics() *obs.Registry { return s.reg }

// OnBarrier registers fn to run at every synchronization point of the
// engine — each epoch barrier of a sharded run (single-threaded, all
// shards quiescent) and the end of every Run/RunFor call, which is
// the only barrier an unsharded run has. now is virtual time. The obs.Recorder ticks from here, piggybacking on
// barriers that already exist: observation adds no synchronization and
// cannot change the event schedule. Callbacks must not mutate sim
// state.
func (s *Simulator) OnBarrier(fn func(now time.Time)) {
	s.onBarrier = append(s.onBarrier, fn)
}

// AttachFlightRecorder routes the engine's packet events through fr:
// every shard gets its own write stripe, so sampling decisions are a
// pure function of per-shard event sequences and the recorded set is
// bit-identical at any worker count. Attach before the run. The
// recorder is the engine's one trace sink and it is bounded: head
// sampling plus per-flow tags and flow-keyed sampling, ring-buffered
// per shard (SampleFlows: 1 with a large enough ring records every
// event).
func (s *Simulator) AttachFlightRecorder(fr *obs.FlightRecorder) {
	s.flight = fr
	for _, sh := range s.shards {
		sh.flight = fr.Stripe(sh.id)
	}
}

// Observe puts the observability plane on s before a run: fr registered
// on s's registry and attached as the trace sink, and a Recorder,
// registered there too, that ticks at every barrier. Both are pure
// observers, and what they record is bit-identical at every worker
// count.
func (s *Simulator) Observe(fr *obs.FlightRecorder) *obs.Recorder {
	fr.Register(s.reg)
	s.AttachFlightRecorder(fr)
	rec := obs.NewRecorder(s.reg)
	rec.Register()
	s.OnBarrier(func(now time.Time) { rec.Tick(now.UnixNano()) })
	return rec
}

// barrierTick fires OnBarrier callbacks. Runs single-threaded with all
// shards quiescent; now must be deterministic virtual time.
func (s *Simulator) barrierTick(now int64) {
	if len(s.onBarrier) == 0 {
		return
	}
	t := s.timeAt(now)
	for _, fn := range s.onBarrier {
		fn(t)
	}
}

// FlowHash maps a packet's canonical FlowKey to a stable 64-bit flow id
// (FNV-1a finished with a splitmix avalanche) — the id the flight
// recorder records and tags key on. Returns 0 for packets too short to
// carry an IPv4 header.
func FlowHash(pkt []byte) uint64 {
	k, _, ok := FlowKeyOf(pkt)
	if !ok {
		return 0
	}
	return FlowKeyHash(k)
}

// FlowKeyHash maps a canonical FlowKey to the same 64-bit flow id
// FlowHash computes from packet bytes — how harnesses name the flows
// they tag or trace without constructing packets.
func FlowKeyHash(k FlowKey) uint64 {
	return splitmix64(k.Fold(obs.NewFNV()).Sum64())
}
