// Package pushback implements aggregate-based congestion control
// (Mahajan et al., CCR 2002), the DoS remedy the paper invokes for
// neutralizers (§3.6).
//
// A neutralizer flooded with key-setup packets identifies the congestion
// signature — an aggregate such as "key-setup packets to the service
// address", optionally narrowed by a source prefix — and asks upstream
// routers to rate-limit the aggregate. Crucially, and per the paper,
// identification does not depend on trustworthy source addresses: the
// signature works under spoofing because it keys on what can't be forged
// (destination, packet type) and treats source prefixes only as an
// optional refinement.
package pushback

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"netneutral/internal/diffserv"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Aggregate is a congestion signature.
type Aggregate struct {
	// Dst restricts to one destination (the victim's address), if valid.
	Dst netip.Addr
	// ShimType restricts to one neutralizer message type
	// (shim.TypeInvalid matches any).
	ShimType shim.Type
	// SrcPrefix optionally narrows by source block; the zero Prefix
	// matches any source (the spoofing-robust default).
	SrcPrefix netip.Prefix
}

// Matches reports whether a serialized IPv4 packet belongs to the
// aggregate.
func (a Aggregate) Matches(pkt []byte) bool {
	src, dst, err := wire.IPv4Addrs(pkt)
	if err != nil {
		return false
	}
	if a.Dst.IsValid() && dst != a.Dst {
		return false
	}
	if a.SrcPrefix.IsValid() && !a.SrcPrefix.Contains(src) {
		return false
	}
	if a.ShimType != shim.TypeInvalid {
		proto, err := wire.IPv4Proto(pkt)
		if err != nil || proto != wire.ProtoShim || len(pkt) < wire.IPv4HeaderLen+1 {
			return false
		}
		t, ok := shim.PeekType(pkt[wire.IPv4HeaderLen:])
		if !ok || t != a.ShimType {
			return false
		}
	}
	return true
}

// Detector runs at the victim (the neutralizer's host). Feed it the
// packets the victim had to drop or refuse; Identify proposes the
// dominant aggregate from the last maxSamples of them.
type Detector struct {
	mu      sync.Mutex
	samples []sample
}

const (
	// maxSamples is how many drop samples a Detector keeps.
	maxSamples = 8192
	// pushFraction is the share of drops an aggregate must cover before
	// MaybePush deploys limiters against it.
	pushFraction = 0.5
	// limiterBurstBytes is an upstream limiter's token-bucket depth.
	limiterBurstBytes = 3000
)

type sample struct {
	src, dst netip.Addr
	shimType shim.Type
}

// NewDetector creates a detector.
func NewDetector() *Detector { return &Detector{} }

// Observe records one refused/dropped packet.
func (d *Detector) Observe(pkt []byte) {
	src, dst, err := wire.IPv4Addrs(pkt)
	if err != nil {
		return
	}
	s := sample{src: src, dst: dst}
	if proto, err := wire.IPv4Proto(pkt); err == nil && proto == wire.ProtoShim &&
		len(pkt) > wire.IPv4HeaderLen {
		if t, ok := shim.PeekType(pkt[wire.IPv4HeaderLen:]); ok {
			s.shimType = t
		}
	}
	d.mu.Lock()
	if len(d.samples) < maxSamples {
		d.samples = append(d.samples, s)
	} else {
		// Reservoir-free sliding behaviour: overwrite oldest.
		copy(d.samples, d.samples[1:])
		d.samples[len(d.samples)-1] = s
	}
	d.mu.Unlock()
}

// WatchQueue wraps a link egress queue so the detector observes every
// packet the inner discipline refuses — the victim sampling drops at its
// own bottleneck, where they happen. Accepted packets, dequeue order and
// length are the inner queue's, untouched. Install with
// netem.Link.SetQueue on the congested direction.
func (d *Detector) WatchQueue(inner netem.Queue) netem.Queue {
	return watchedQueue{Queue: inner, det: d}
}

type watchedQueue struct {
	netem.Queue
	det *Detector
}

func (q watchedQueue) Enqueue(p *netem.Packet) bool {
	if q.Queue.Enqueue(p) {
		return true
	}
	q.det.Observe(p.Pkt)
	return false
}

// Identify returns the aggregate covering at least minFraction of the
// observed drops, preferring the most specific signature: it fixes the
// dominant destination and shim type, then narrows by the dominant /16
// source prefix only if that prefix alone covers minFraction (which a
// spoofing attacker defeats — then the prefix is left empty).
func (d *Detector) Identify(minFraction float64) (Aggregate, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.samples)
	if n == 0 {
		return Aggregate{}, false
	}
	dstCount := map[netip.Addr]int{}
	typeCount := map[shim.Type]int{}
	prefCount := map[netip.Prefix]int{}
	for _, s := range d.samples {
		dstCount[s.dst]++
		typeCount[s.shimType]++
		if p, err := s.src.Prefix(16); err == nil {
			prefCount[p]++
		}
	}
	dst, dc := argmaxAddr(dstCount)
	if float64(dc) < minFraction*float64(n) {
		return Aggregate{}, false
	}
	agg := Aggregate{Dst: dst}
	if t, tc := argmaxType(typeCount); t != shim.TypeInvalid &&
		float64(tc) >= minFraction*float64(n) {
		agg.ShimType = t
	}
	if p, pc := argmaxPrefix(prefCount); float64(pc) >= minFraction*float64(n) {
		agg.SrcPrefix = p
	}
	return agg, true
}

// Reset clears samples.
func (d *Detector) Reset() {
	d.mu.Lock()
	d.samples = nil
	d.mu.Unlock()
}

func argmaxAddr(m map[netip.Addr]int) (netip.Addr, int) {
	keys := make([]netip.Addr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var best netip.Addr
	bc := -1
	for _, k := range keys {
		if m[k] > bc {
			best, bc = k, m[k]
		}
	}
	return best, bc
}

func argmaxType(m map[shim.Type]int) (shim.Type, int) {
	var best shim.Type
	bc := -1
	for t := shim.Type(0); t < 32; t++ {
		if c, ok := m[t]; ok && c > bc {
			best, bc = t, c
		}
	}
	return best, bc
}

func argmaxPrefix(m map[netip.Prefix]int) (netip.Prefix, int) {
	keys := make([]netip.Prefix, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var best netip.Prefix
	bc := -1
	for _, k := range keys {
		if m[k] > bc {
			best, bc = k, m[k]
		}
	}
	return best, bc
}

// Limiter rate-limits an aggregate at an upstream router. It implements
// a netem.TransitHook factory with an expiry: pushback state is soft.
type Limiter struct {
	mu      sync.Mutex
	agg     Aggregate
	bucket  *diffserv.TokenBucket
	expires time.Time
	Dropped uint64
	Passed  uint64
}

// NewLimiter creates a limiter admitting rateBps for the aggregate until
// expiry.
func NewLimiter(agg Aggregate, rateBps float64, expires time.Time) *Limiter {
	return &Limiter{
		agg:     agg,
		bucket:  diffserv.NewTokenBucket(rateBps, limiterBurstBytes),
		expires: expires,
	}
}

// Hook returns the transit hook to install on the upstream node.
func (l *Limiter) Hook() netem.TransitHook {
	return func(now time.Time, node *netem.Node, pkt []byte) netem.Verdict {
		l.mu.Lock()
		defer l.mu.Unlock()
		if now.After(l.expires) || !l.agg.Matches(pkt) {
			return netem.Deliver
		}
		if l.bucket.Allow(now, len(pkt)) {
			l.Passed++
			return netem.Deliver
		}
		l.Dropped++
		return netem.Verdict{Drop: true}
	}
}

// Controller ties detection to deployment: when the victim observes
// sustained overload it identifies the aggregate and installs limiters on
// the given upstream nodes.
type Controller struct {
	Detector *Detector
	// Upstream nodes that honor pushback requests.
	Upstream []*netem.Node
	// LimitBps is the rate granted to the attack aggregate.
	LimitBps float64
	// Lifetime of installed limiters.
	Lifetime time.Duration

	mu       sync.Mutex
	limiters []*Limiter
}

// MaybePush identifies the dominant aggregate and, if one covers at least
// pushFraction of drops, installs limiters upstream. It reports whether
// pushback was deployed.
func (c *Controller) MaybePush(now time.Time) bool {
	agg, ok := c.Detector.Identify(pushFraction)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, up := range c.Upstream {
		l := NewLimiter(agg, c.LimitBps, now.Add(c.Lifetime))
		up.AddTransitHook(l.Hook())
		c.limiters = append(c.limiters, l)
	}
	c.Detector.Reset()
	return true
}

// Limiters returns the limiters deployed so far.
func (c *Controller) Limiters() []*Limiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Limiter, len(c.limiters))
	copy(out, c.limiters)
	return out
}
