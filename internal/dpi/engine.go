package dpi

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/obs"
)

// ClassPolicy is the enforcement applied to packets of one class —
// graded degradation, not the binary drop of the rule-list ISP. The
// stealth fields make the enforcement hard to *audit*: each one blunts
// a naive differential measurement without changing what a throttled
// user experiences in aggregate (see internal/audit and eval's E8).
type ClassPolicy struct {
	// DropProb drops each packet of the class with this probability.
	DropProb float64
	// RateBps, when positive, polices the class's aggregate rate with a
	// token bucket burstBits deep: packets beyond the rate are dropped.
	RateBps float64
	// Delay holds each packet of the class before forwarding.
	Delay time.Duration

	// TargetFraction, when in (0,1), applies the policy to only that
	// fraction of the class's flows, selected by a keyed hash of the
	// flow key — partial throttling: a flow's fate is stable for its
	// lifetime, but any single vantage point has only this probability
	// of ever seeing the differential.
	TargetFraction float64
	// DutyPeriod, when positive, duty-cycles enforcement in time: the
	// policy is active only during the first half of every DutyPeriod
	// (time-varying throttling that a one-shot measurement misses and
	// that spreads a trial series across ON and OFF phases).
	DutyPeriod time.Duration
	// MinFlowPkts, when positive, exempts flows until they have shown
	// this many packets — probe evasion: short measurement flows
	// complete clean while long-lived application flows age into
	// enforcement. The gate reads the tracker's *windowed* packet
	// count, which exponential decay keeps below 2x windowPkts;
	// NewEngine therefore clamps MinFlowPkts to windowPkts
	// (the count's stable floor for a long flow), so enforcement always
	// engages eventually no matter how large a threshold is configured.
	MinFlowPkts uint64
}

// active reports whether the policy's stealth gates allow enforcement
// for this packet: flow age, duty phase, and per-flow targeting.
func (p *ClassPolicy) active(stealthSeed uint64, key netem.FlowKey, flowPkts uint64, nowNanos int64) bool {
	if p.MinFlowPkts > 0 && flowPkts <= p.MinFlowPkts {
		return false
	}
	if p.DutyPeriod > 0 {
		phase := nowNanos % int64(p.DutyPeriod)
		if phase < 0 {
			phase += int64(p.DutyPeriod)
		}
		if phase >= int64(p.DutyPeriod/2) {
			return false
		}
	}
	if p.TargetFraction > 0 && p.TargetFraction < 1 {
		if flowFrac(stealthSeed, key) >= p.TargetFraction {
			return false
		}
	}
	return true
}

// flowFrac maps a flow key to a stable uniform value in [0,1) under a
// keyed FNV-1a hash. Allocation-free: it runs per packet on the transit
// hot path.
func flowFrac(seed uint64, key netem.FlowKey) float64 {
	h := key.Fold(obs.NewFNV() ^ obs.FNV(seed)).Sum64()
	// Final avalanche (splitmix64 tail) so low-entropy keys spread.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// Policy maps each class (indexed by Class, including ClassUnknown=0)
// to its enforcement.
type Policy [NumClasses + 1]ClassPolicy

// burstBits is the token-bucket depth: 64 full-size packets.
const burstBits = 64 * 1500 * 8

// tokenBucket is a policing bucket in bits.
type tokenBucket struct {
	tokens    float64
	lastNanos int64
}

func (b *tokenBucket) allow(bits, rateBps float64, nowNanos int64) bool {
	if b.lastNanos != 0 {
		b.tokens += rateBps * float64(nowNanos-b.lastNanos) / 1e9
	} else {
		b.tokens = burstBits
	}
	b.lastNanos = nowNanos
	if b.tokens > burstBits {
		b.tokens = burstBits
	}
	if b.tokens < bits {
		return false
	}
	b.tokens -= bits
	return true
}

// EngineConfig configures a transit enforcement engine.
type EngineConfig struct {
	// Classifier assigns the flow tracker's classes; nil observes
	// features without classifying.
	Classifier *Classifier
	// Policy is the per-class enforcement; the zero value observes
	// without interfering (a pure eavesdropper).
	Policy Policy
	// Rng drives probabilistic drops; seed it for deterministic
	// experiments (default: seed 1).
	Rng *rand.Rand
	// StealthSeed keys the per-flow TargetFraction hash (default: a
	// fixed constant, so runs replay bit-identically without consuming
	// from Rng).
	StealthSeed uint64
}

// Engine is the deployable statistical adversary: a flow tracker, a
// classifier, and per-class enforcement compiled into one transit hook.
//
// An engine is shard-pinned: flows are local to the node observing them,
// so the engine's flow table, token buckets, and RNG are owned by the
// shard of the node its hook is attached to. Attaching one engine to
// nodes on different shards would race the tracker and break replay
// determinism; the hook detects that and panics (pinShard).
type Engine struct {
	table       *FlowTable
	pol         Policy
	stealthSeed uint64
	pinShard    atomic.Int32 // 1 + shard id of the observing node; 0 = unset

	mu      sync.Mutex
	rng     *rand.Rand
	buckets [NumClasses + 1]tokenBucket
	dropped [NumClasses + 1]uint64
	policed [NumClasses + 1]uint64
}

// NewEngine builds an engine; see EngineConfig.
func NewEngine(cfg EngineConfig) *Engine {
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	seed := cfg.StealthSeed
	if seed == 0 {
		seed = 0x6e65757472616c // stable default: replays stay bit-identical
	}
	// The flow tracker's windowed packet count decays (it oscillates in
	// [windowPkts, 2*windowPkts) for a long flow), so a MinFlowPkts at
	// or above that band would exempt every flow forever. Clamp to the
	// band's floor: the largest threshold every long flow still crosses.
	pol := cfg.Policy
	for i := range pol {
		pol[i].MinFlowPkts = min(pol[i].MinFlowPkts, windowPkts)
	}
	return &Engine{table: NewFlowTable(cfg.Classifier), pol: pol, rng: rng, stealthSeed: seed}
}

// Table exposes the flow tracker for measurement and training.
func (e *Engine) Table() *FlowTable { return e.table }

// Drops reports packets dropped by probabilistic enforcement for the
// class; Policed reports token-bucket drops.
func (e *Engine) Drops(c Class) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped[c]
}

// Policed reports token-bucket drops for the class.
func (e *Engine) Policed(c Class) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.policed[c]
}

// Hook compiles the engine into a netem transit hook. The per-packet
// path — flow-key extraction, feature update, classification check,
// policy decision — allocates nothing.
func (e *Engine) Hook() netem.TransitHook {
	return func(now time.Time, node *netem.Node, pkt []byte) netem.Verdict {
		if node != nil { // direct hook invocations in tests pass no node
			if sid := int32(node.ShardID()) + 1; e.pinShard.Load() != sid {
				// Slow path: first packet pins; a different shard panics.
				if !e.pinShard.CompareAndSwap(0, sid) {
					panic("dpi: engine observed packets on two shards; attach one engine per ingress shard")
				}
			}
		}
		key, fwd, ok := netem.FlowKeyOf(pkt)
		if !ok {
			return netem.Deliver
		}
		nanos := now.UnixNano()
		class, flowPkts := e.table.ObserveN(key, fwd, len(pkt), nanos)
		p := &e.pol[class]
		if !p.active(e.stealthSeed, key, flowPkts, nanos) {
			return netem.Deliver
		}
		e.mu.Lock()
		if p.RateBps > 0 && !e.buckets[class].allow(float64(len(pkt)*8), p.RateBps, nanos) {
			e.policed[class]++
			e.mu.Unlock()
			return netem.Verdict{Drop: true, Cause: netem.CauseTokenBucket, Class: uint8(class)}
		}
		if p.DropProb > 0 && e.rng.Float64() < p.DropProb {
			e.dropped[class]++
			e.mu.Unlock()
			return netem.Verdict{Drop: true, Cause: netem.CauseRandomDrop, Class: uint8(class)}
		}
		e.mu.Unlock()
		if p.Delay > 0 {
			return netem.Verdict{Delay: p.Delay, Cause: netem.CauseClassDelay, Class: uint8(class)}
		}
		return netem.Deliver
	}
}
