package netem

import (
	"time"

	"netneutral/internal/obs"
)

// The engine's own telemetry lives on an obs.Registry owned by the
// Simulator: every counter the hot path touches is a per-shard stripe
// fetched once at shard creation, so counting a delivery is a plain
// field increment on shard-local memory — no atomics, no allocation,
// and no serialization at epoch barriers. Simulator.Forwarded, Dropped
// and PoolStats are thin reads over the same registry; per-link counts
// exist only as the per-shard aggregates (netem_link_tx_packets_total,
// netem_link_queue_drops_total), because a family per link would
// explode cardinality on metro topologies. Gauges (heap depth, pool
// occupancy) are refreshed at barriers, where shards are quiescent.
//
// Determinism contract: every non-volatile metric is a pure function of
// deterministic sim state, so with a fixed seed the registry's merged
// values — and an attached Recorder's time-series rings — are
// bit-identical at any worker count. The one wall-clock family the
// engine keeps (netem_epoch_wall_ns) is registered obs.Volatile so
// recorders exclude it.

// simMetrics is the simulator's registry plus the families the engine
// writes.
type simMetrics struct {
	reg *obs.Registry

	events    *obs.CounterVec
	delivered *obs.CounterVec
	forwarded *obs.CounterVec
	dropped   *obs.CounterVec
	poolAlloc *obs.CounterVec
	poolGets  *obs.CounterVec
	linkTx    *obs.CounterVec
	linkQDrop *obs.CounterVec
	heapDepth *obs.GaugeVec
	poolFree  *obs.GaugeVec
	lanePush  *obs.CounterVec
	heapPush  *obs.CounterVec

	startDir, startQ *obs.CounterVec

	epochs    *obs.Counter
	epochWall *obs.HistStripe
	lookahead *obs.Gauge
	// Ordered shard pairs the barriers drained / never had to visit.
	mailDrained, mailSilent *obs.Counter
}

func newSimMetrics() *simMetrics {
	reg := obs.NewRegistry()
	m := &simMetrics{reg: reg}
	m.events = reg.Counter("netem_events_total",
		"Events executed across all shard event loops.")
	m.delivered = reg.Counter("netem_delivered_packets_total",
		"Packets locally delivered anywhere in the network.")
	m.forwarded = reg.Counter("netem_forwarded_packets_total",
		"Router forwarding decisions (one per transit hop).")
	m.dropped = reg.Counter("netem_dropped_packets_total",
		"Packets dropped (queue, policy, no-route, TTL).")
	m.poolAlloc = reg.Counter("netem_pool_allocated_buffers_total",
		"Packet buffers ever created across shard pools.")
	m.poolGets = reg.Counter("netem_pool_checkouts_total",
		"Packet buffer checkouts (pool hits plus misses).")
	m.linkTx = reg.Counter("netem_link_tx_packets_total",
		"Packets that completed link serialization.")
	m.linkQDrop = reg.Counter("netem_link_queue_drops_total",
		"Packets dropped by full link egress queues.")
	m.heapDepth = reg.Gauge("netem_heap_depth",
		"Pending events across shard event queues (lanes plus heap), sampled at barriers.")
	m.poolFree = reg.Gauge("netem_pool_free_buffers",
		"Free packet buffers across shard pools, sampled at barriers.")
	// Which structure took a push is execution strategy, not sim state:
	// volatile, so recorders and observation digests stay comparable
	// across engine versions.
	const pushHelp = "Event pushes by the structure that took them: a per-delay FIFO lane, or the fallback heap."
	m.lanePush = reg.Counter(`netem_queue_pushes_total{path="lane"}`, pushHelp, obs.Volatile())
	m.heapPush = reg.Counter(`netem_queue_pushes_total{path="heap"}`, pushHelp, obs.Volatile())
	// Likewise how a serialization started and which pairs a barrier visited.
	const startHelp = "Link serializations started with the packet in hand on an idle line (direct) or from a queue's Dequeue (queued)."
	m.startDir = reg.Counter(`netem_link_starts_total{path="direct"}`, startHelp, obs.Volatile())
	m.startQ = reg.Counter(`netem_link_starts_total{path="queued"}`, startHelp, obs.Volatile())
	const mailHelp = "Ordered shard pairs per barrier: drained (the source staged an event or a homebound buffer) or silent (never visited)."
	m.mailDrained = reg.Counter(`netem_barrier_mailboxes_total{state="drained"}`, mailHelp, obs.Volatile()).Stripe(0)
	m.mailSilent = reg.Counter(`netem_barrier_mailboxes_total{state="silent"}`, mailHelp, obs.Volatile()).Stripe(0)
	m.epochs = reg.Counter("netem_epochs_total",
		"Conservative epochs (barrier rounds) executed.").Stripe(0)
	m.epochWall = reg.Histogram("netem_epoch_wall_ns",
		"Wall-clock nanoseconds per epoch; volatile, excluded from deterministic recording.",
		obs.Volatile()).Stripe(0)
	m.lookahead = reg.Gauge("netem_lookahead_ns",
		"Conservative lookahead: minimum cross-shard link delay (0 when no links cross shards).").Stripe(0)
	return m
}

// attachShard hands a new shard its write stripes.
func (m *simMetrics) attachShard(sh *shard) {
	id := sh.id
	sh.mEvents = m.events.Stripe(id)
	sh.mDelivered = m.delivered.Stripe(id)
	sh.mForwarded = m.forwarded.Stripe(id)
	sh.mDropped = m.dropped.Stripe(id)
	sh.mLinkTx = m.linkTx.Stripe(id)
	sh.mLinkQDrop = m.linkQDrop.Stripe(id)
	sh.gHeap = m.heapDepth.Stripe(id)
	sh.gPoolFree = m.poolFree.Stripe(id)
	sh.events.inLane = m.lanePush.Stripe(id)
	sh.events.inHeap = m.heapPush.Stripe(id)
	sh.mStartDirect = m.startDir.Stripe(id)
	sh.mStartQueued = m.startQ.Stripe(id)
	sh.pool.allocated = m.poolAlloc.Stripe(id)
	sh.pool.gets = m.poolGets.Stripe(id)
}

// Metrics returns the simulator's metric registry. Experiments and
// daemons register their own families here (get-or-create, so shared
// names compose); exporters snapshot it at barriers or after runs.
func (s *Simulator) Metrics() *obs.Registry { return s.met.reg }

// OnBarrier registers fn to run at every synchronization point of the
// engine — each epoch barrier of a sharded run (single-threaded, all
// shards quiescent) and the end of every Run/RunUntil call, which is
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

// barrierTick refreshes barrier-sampled gauges and fires OnBarrier
// callbacks. Runs single-threaded with all shards quiescent; now must
// be deterministic virtual time.
func (s *Simulator) barrierTick(now int64) {
	if len(s.onBarrier) == 0 {
		return
	}
	for _, sh := range s.shards {
		sh.gHeap.Set(int64(sh.events.len()))
		sh.gPoolFree.Set(int64(len(sh.pool.free)))
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
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range k.Lo {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range k.Hi {
		h = (h ^ uint64(b)) * prime64
	}
	h = (h ^ uint64(k.Proto)) * prime64
	return splitmix64(h)
}
