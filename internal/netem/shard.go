package netem

import (
	"fmt"
	"math/rand"
	"time"

	"netneutral/internal/obs"
)

// The parallel engine partitions a Simulator into shards: each shard
// owns an event queue, a packet freelist, a seeded PRNG, and the nodes
// assigned to it. Execution proceeds in conservative epochs bounded by
// the minimum cross-shard link propagation delay (the lookahead): within
// an epoch every shard runs independently — it may only touch its own
// state — and packets crossing a shard boundary are staged in per-
// destination outboxes that the receiving shard merges deterministically
// (ordered by time, then source shard, then source sequence) at the
// epoch barrier, visiting only the shards that staged something for it
// (TestBarrierDrainsOnlyTouchedPairs). Because shard assignment is a
// property of the topology and the merge order is a pure function of
// event content, a seeded run is bit-identical at any worker count,
// including 1. An unsharded simulator is the same machine with one shard
// and nothing to merge (see parallel.go).
//
// Virtual time inside the engine is one int64 of Unix nanoseconds —
// event timestamps, shard clocks, window bounds; time.Time appears only
// at the exported edge, converted by Simulator.timeAt.

// shard is one partition's worker state. All fields are owned by the
// shard: during an epoch only the goroutine executing the shard touches
// them (outboxes are read by their destination shard, but only in the
// merge phase, when sources are quiescent).
type shard struct {
	sim *Simulator
	id  int

	now    int64 // shard-local virtual clock, Unix nanoseconds
	seq    uint64
	events eventQueue
	pool   packetPool
	rng    *rand.Rand

	// outbox[d] stages events bound for shard d, in emission order.
	outbox [][]remoteEvent
	// spoke lists the shards this one staged an outbox event or a homebound
	// buffer (packetPool.put) for since the last barrier; the coordinator
	// transposes it into sources, the shards mergeIncoming has to visit.
	spoke   []int32
	sources []*shard
	// mergeBuf is scratch for the deterministic incoming merge.
	mergeBuf []remoteEvent

	// Write stripes of the simulator's metric registry (see metrics.go):
	// per-shard, cache-line padded, plain increments — the shard is the
	// single writer, merged only at read time.
	mEvents    *obs.Counter
	mDelivered *obs.Counter
	mForwarded *obs.Counter
	mDropped   *obs.Counter
	mLinkTx    *obs.Counter
	mLinkQDrop *obs.Counter
	gHeap      *obs.Gauge
	gPoolFree  *obs.Gauge
	// Serializations started with the packet in hand / from a queue.
	mStartDirect, mStartQueued *obs.Counter
	// flight is the shard's flight-recorder stripe, nil unless attached.
	flight *obs.FlightStripe

	// journeySeq numbers the packet journeys this shard originates; with
	// the shard id it forms the journey id — a pure function of the
	// topology and seed, never of the worker count.
	journeySeq uint64
}

// remoteEvent is a cross-shard event staged in an outbox, tagged with
// its origin for the deterministic merge order.
type remoteEvent struct {
	ev  event // at = arrival time, seq = source-shard sequence
	src int32
}

// splitmix64 is the SplitMix64 mixing function: the standard way to
// derive independent per-shard seeds from one root seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shardSeed derives shard id's RNG seed from the root seed. Shard 0
// keeps the root seed itself, so an unsharded simulation draws exactly
// the stream rand.NewSource(seed) yields; every other shard gets an
// independent splitmix-derived stream.
//
// The root is mixed once before stepping the SplitMix64 stream. Feeding
// root+id*golden straight into the mixer made distinct (root, id) pairs
// land on the same stream position — shardSeed(r, 2) == shardSeed(r+g, 1)
// for the golden-ratio increment g — so two experiments whose seeds
// differed by g shared shard RNG streams. Mixing the root first makes the
// stream origin a pseudo-random function of the root, and stream
// positions of related roots unrelated.
func shardSeed(root int64, id int) int64 {
	if id == 0 {
		return root
	}
	return int64(splitmix64(splitmix64(uint64(root)) + uint64(id)*0x9E3779B97F4A7C15))
}

func newShard(s *Simulator, id int, now int64) *shard {
	sh := &shard{sim: s, id: id, now: now,
		rng: rand.New(rand.NewSource(shardSeed(s.seed, id)))}
	sh.pool.owner = sh
	sh.pool.debug = s.poolDebug
	s.met.attachShard(sh)
	if s.flight != nil {
		sh.flight = s.flight.Stripe(id)
	}
	return sh
}

// SetShardCount declares n shards (n >= 1; the count only grows).
// Topology builders call it before assigning nodes with Node.SetShard.
// Each shard's PRNG derives from the simulator seed via splitmix, so
// shard RNG streams are a function of (seed, shard id) alone — never of
// the worker count the simulation later runs with.
func (s *Simulator) SetShardCount(n int) {
	for len(s.shards) < n {
		s.shards = append(s.shards, newShard(s, len(s.shards), s.now()))
	}
	s.planDirty = true
}

// ShardCount reports the declared number of shards.
func (s *Simulator) ShardCount() int { return len(s.shards) }

// SetWorkers sets how many OS threads execute the shards during Run
// (default 1). Workers only parallelize execution: with a fixed seed,
// results are bit-identical at every worker count. Values above the
// shard count are clamped at run time.
func (s *Simulator) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	s.workers = w
}

// SetShard assigns the node to a shard declared with SetShardCount.
// Assign shards while building the topology, before any traffic is
// scheduled: events already queued on the old shard are not migrated.
func (n *Node) SetShard(id int) {
	s := n.sim
	if id < 0 || id >= len(s.shards) {
		panic(fmt.Sprintf("netem: node %q assigned to shard %d of %d; call SetShardCount first",
			n.Name, id, len(s.shards)))
	}
	n.sh = s.shards[id]
	s.planDirty = true
}

// ShardID reports which shard the node belongs to.
func (n *Node) ShardID() int { return n.sh.id }

// Context is the scheduling surface traffic generators and probers run
// on. Both *Simulator and *Node implement it: single-threaded
// simulations pass the simulator; sharded simulations must anchor each
// source to a node so its callbacks run on (and its jitter draws from)
// that node's shard.
type Context interface {
	// Now is the current virtual time of the scheduling domain.
	Now() time.Time
	// NowNanos is Now as integer nanoseconds (hot-path timestamp form).
	NowNanos() int64
	// Schedule runs fn after d of virtual time on the domain's queue.
	Schedule(d time.Duration, fn func())
	// Rand is the domain's seeded PRNG.
	Rand() *rand.Rand
}

// Now returns the node's shard-local virtual time: exact inside the
// node's own callbacks, which is what source scheduling needs.
func (n *Node) Now() time.Time { return n.sim.timeAt(n.sh.now) }

// NowNanos returns the node's shard-local clock as nanoseconds.
func (n *Node) NowNanos() int64 { return n.sh.now }

// Schedule runs fn after d of virtual time on the node's shard. Source
// generators anchored to a node schedule here so their emissions execute
// on the shard that owns the node — the requirement for parallel runs.
func (n *Node) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.sh.schedule(n.sh.now+int64(d), event{kind: evFunc, fn: fn})
}

// Rand returns the PRNG of the node's shard. Deterministic parallel
// simulations draw node-local jitter from here: the stream is a function
// of (simulator seed, shard id) and is consumed only by the shard's own
// event execution.
func (n *Node) Rand() *rand.Rand { return n.sh.rng }

// NewPacket checks a buffer out of the node's shard-local pool and
// copies b into it — the one copy of a packet's journey (Node.Send
// does the same).
func (n *Node) NewPacket(b []byte) *Packet {
	p := n.sh.pool.get(len(b))
	copy(p.Pkt, b)
	return p
}

// schedule enqueues ev at absolute time at (clamped to the shard's now).
func (sh *shard) schedule(at int64, ev event) {
	if at < sh.now {
		at = sh.now
	}
	sh.seq++
	ev.at = at
	ev.seq = sh.seq
	sh.events.push(&ev, at-sh.now)
}

// sendRemote stages ev for another shard at absolute time at. The event
// keeps the source shard's sequence number; the destination re-sequences
// it during its deterministic merge.
func (sh *shard) sendRemote(dst *shard, at int64, ev event) {
	sh.seq++
	ev.at = at
	ev.seq = sh.seq
	for len(sh.outbox) <= dst.id {
		sh.outbox = append(sh.outbox, nil)
	}
	if len(sh.outbox[dst.id]) == 0 {
		sh.spoke = append(sh.spoke, int32(dst.id))
	}
	sh.outbox[dst.id] = append(sh.outbox[dst.id], remoteEvent{ev: ev, src: int32(sh.id)})
}

// stampJourney assigns the packet its journey id at origination.
func (sh *shard) stampJourney(p *Packet) {
	sh.journeySeq++
	p.journey = uint64(sh.id)<<48 | sh.journeySeq
}

// emit counts one packet event on the shard and offers it to the flight
// recorder — the engine's one trace sink. It resets the packet's
// attribution accumulators — the delay components that elapsed since the
// journey's previous event — so recorded components are per-hop deltas
// whose journey sum equals the end-to-end delay exactly.
func (sh *shard) emit(kind TraceKind, node *Node, p *Packet) {
	switch {
	case kind == TraceDeliver:
		sh.mDelivered.Inc()
	case kind == TraceForward:
		sh.mForwarded.Inc()
	case kind >= TraceDropQueue:
		sh.mDropped.Inc()
	}
	// Deterministic head sampling on the shard's own event sequence; the
	// flow hash is only computed when the event is sampled or per-flow
	// selection (tags, flow-keyed sampling) could match it, and it is
	// cached on the packet for the journey's remaining hops.
	if st := sh.flight; st != nil {
		take := st.Sample()
		if take || st.FlowAware() {
			flow := p.flowID()
			if take || st.WantFlow(flow) {
				st.Record(obs.TraceRec{
					TimeNanos: sh.now, Flow: flow, Journey: p.journey,
					Node: int32(node.id), Size: int32(len(p.Pkt)), Kind: uint8(kind),
					QueueNanos: p.attrQueue, SerializeNanos: p.attrSer,
					PropagateNanos: p.attrProp, PolicyNanos: p.attrPolicy,
					ProcNanos: p.attrProc, Cause: uint8(p.cause), Class: p.class,
				})
			}
		}
	}
	p.attrQueue, p.attrSer, p.attrProp, p.attrPolicy, p.attrProc = 0, 0, 0, 0, 0
	p.cause, p.class = 0, 0
}
