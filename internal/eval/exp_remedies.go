package eval

import (
	"bytes"
	"fmt"
	mathrand "math/rand"
	"net/netip"
	"sync"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// The rows of §3.4–§3.6 (A8, A6, A5), each beside the mechanism it runs.
//
// A5 runs pushback, aggregate-based congestion control (Mahajan et al.,
// CCR 2002), the DoS remedy §3.6 invokes for neutralizers: the victim
// identifies the signature of what it is dropping and asks an upstream
// router to rate-limit that aggregate. Identification does not trust
// source addresses: it keys on what a spoofer cannot forge (destination,
// packet type) and narrows by source prefix only when one dominates.

// aggregate is a congestion signature.
type aggregate struct {
	dst       netip.Addr   // the victim's address
	shimType  shim.Type    // shim.TypeInvalid matches any packet type
	srcPrefix netip.Prefix // the zero prefix matches any source
}

// matches reports whether a serialized IPv4 packet belongs to a.
func (a aggregate) matches(pkt []byte) bool {
	src, dst, err := wire.IPv4Addrs(pkt)
	if err != nil || dst != a.dst || a.srcPrefix.IsValid() && !a.srcPrefix.Contains(src) {
		return false
	}
	return a.shimType == shim.TypeInvalid || shimTypeOf(pkt) == a.shimType
}

// shimTypeOf returns a shim packet's message type, and shim.TypeInvalid
// for any other packet.
func shimTypeOf(pkt []byte) shim.Type {
	if proto, err := wire.IPv4Proto(pkt); err != nil || proto != wire.ProtoShim {
		return shim.TypeInvalid
	}
	t, _ := shim.PeekType(pkt[wire.IPv4HeaderLen:])
	return t
}

// floodDetector is the victim's bottleneck egress queue, watched: it
// records every packet the inner discipline refuses, where the drops
// happen. Accepted packets, dequeue order and length are the inner
// queue's.
type floodDetector struct {
	netem.Queue

	mu      sync.Mutex
	samples []dropSample // the last maxDropSamples refusals
}

type dropSample struct {
	src, dst netip.Addr
	shimType shim.Type
}

const maxDropSamples = 8192

// Enqueue implements netem.Queue.
func (d *floodDetector) Enqueue(p *netem.Packet) bool {
	if d.Queue.Enqueue(p) {
		return true
	}
	src, dst, err := wire.IPv4Addrs(p.Pkt)
	if err != nil {
		return false
	}
	s := dropSample{src: src, dst: dst, shimType: shimTypeOf(p.Pkt)}
	d.mu.Lock()
	if len(d.samples) == maxDropSamples {
		d.samples = append(d.samples[:0], d.samples[1:]...)
	}
	d.samples = append(d.samples, s)
	d.mu.Unlock()
	return false
}

// identify returns the aggregate covering at least half the observed
// drops: the dominant destination, the dominant shim type if it covers
// half too, and the dominant /16 source prefix only if it covers half (a
// spoofing attacker defeats that; the prefix is then left open).
func (d *floodDetector) identify() (aggregate, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.samples)
	if n == 0 {
		return aggregate{}, false
	}
	dsts, types, prefixes := map[netip.Addr]int{}, map[shim.Type]int{}, map[netip.Prefix]int{}
	for _, s := range d.samples {
		dsts[s.dst]++
		types[s.shimType]++
		if p, err := s.src.Prefix(16); err == nil {
			prefixes[p]++
		}
	}
	dst, c := argmax(dsts, netip.Addr.Less)
	if 2*c < n {
		return aggregate{}, false
	}
	agg := aggregate{dst: dst}
	if t, c := argmax(types, func(a, b shim.Type) bool { return a < b }); t != shim.TypeInvalid && 2*c >= n {
		agg.shimType = t
	}
	if p, c := argmax(prefixes, func(a, b netip.Prefix) bool { return a.String() < b.String() }); 2*c >= n {
		agg.srcPrefix = p
	}
	return agg, true
}

// argmax returns m's most frequent key and its count; among ties, the
// least key under less.
func argmax[K comparable](m map[K]int, less func(a, b K) bool) (best K, count int) {
	count = -1
	for k, c := range m {
		if c > count || c == count && less(k, best) {
			best, count = k, c
		}
	}
	return best, count
}

// limiterBurstBytes is an upstream limiter's token-bucket depth.
const limiterBurstBytes = 3000

// limiter rate-limits an aggregate at an upstream router; hook is the
// router's transit hook.
type limiter struct {
	mu      sync.Mutex
	agg     aggregate
	bucket  tokenBucket
	dropped uint64
}

func (l *limiter) hook(now time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.agg.matches(pkt) || l.bucket.allow(now, len(pkt)) {
		return netem.Deliver
	}
	l.dropped++
	return netem.Verdict{Drop: true}
}

// tokenBucket is a policer: traffic conforming to rate and burst is
// admitted, the excess is not.
type tokenBucket struct {
	rateBps float64 // bits per second
	burst   float64 // bucket depth, bits
	tokens  float64
	last    time.Time // zero until the first packet
}

func newTokenBucket(rateBps float64, burstBytes int) tokenBucket {
	b := float64(burstBytes * 8)
	return tokenBucket{rateBps: rateBps, burst: b, tokens: b}
}

// allow reports whether a packet of size bytes conforms at now,
// consuming its tokens if it does.
func (t *tokenBucket) allow(now time.Time, size int) bool {
	if t.last.IsZero() {
		t.last = now
	}
	if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
		t.tokens = min(t.tokens+elapsed*t.rateBps, t.burst)
		t.last = now
	}
	need := float64(size * 8)
	if t.tokens < need {
		return false
	}
	t.tokens -= need
	return true
}

// RunA5 reproduces the §3.6 DoS story: a key-setup flood starves
// legitimate traffic at the neutralizer's ingress; pushback restores it.
func RunA5(Scale) (*Result, error) {
	sim := netem.NewSimulator(benchStart, 51)
	atk := sim.MustAddNode("attacker", "", netip.MustParseAddr("192.0.2.1"))
	good := sim.MustAddNode("good", "", f1Ann)
	up := sim.MustAddNode("upstream", "", f1Att)
	vic := sim.MustAddNode("victim", "", f1Anycast)
	sim.Connect(atk, up, netem.LinkConfig{Delay: time.Millisecond})
	sim.Connect(good, up, netem.LinkConfig{Delay: time.Millisecond})
	bottleneck := sim.Connect(up, vic, netem.LinkConfig{Delay: time.Millisecond, RateBps: 800_000})
	sim.BuildRoutes()

	// The victim samples what its bottleneck's egress queue refuses.
	det := &floodDetector{Queue: netem.NewFIFOQueue(16)}
	if err := bottleneck.SetQueue(up, det); err != nil {
		return nil, err
	}
	received := map[shim.Type]int{}
	vic.SetHandler(func(_ time.Time, pkt []byte) { received[shimTypeOf(pkt)]++ })

	flood, err := shim.BuildPacket(netip.MustParseAddr("192.0.2.1"), f1Anycast, 0, &shim.Header{
		Type: shim.TypeKeySetupRequest, PublicKey: make([]byte, 66)}, nil)
	if err != nil {
		return nil, err
	}
	goodPkt, err := shim.BuildPacket(f1Ann, f1Anycast, 0, &shim.Header{
		Type: shim.TypeData, Nonce: keys.Nonce{1}}, nil)
	if err != nil {
		return nil, err
	}
	inject := func(goodCount int) {
		for i := 0; i < 500; i++ {
			sim.Schedule(time.Duration(i)*time.Millisecond, func() {
				for j := 0; j < 10; j++ {
					_ = atk.Send(flood)
				}
			})
		}
		for i := 0; i < goodCount; i++ {
			sim.Schedule(time.Duration(i*10)*time.Millisecond, func() { _ = good.Send(goodPkt) })
		}
	}

	inject(50)
	sim.RunFor(500 * time.Millisecond)
	before := received[shim.TypeData]

	// Pushback: the upstream router limits the identified aggregate to
	// 10 kb/s.
	agg, deployed := det.identify()
	lim := &limiter{agg: agg, bucket: newTokenBucket(10_000, limiterBurstBytes)}
	if deployed {
		up.AddTransitHook(lim.hook)
	}
	received[shim.TypeData] = 0
	inject(50)
	sim.RunFor(500 * time.Millisecond)
	after := received[shim.TypeData]

	// Collapsed is at most a tenth of the legitimate packets delivered;
	// restored is at least nine tenths.
	return &Result{ID: "A5", Title: "Key-setup flood and pushback", Rows: []Row{
		{Metric: "flood rate vs bottleneck", Paper: "-", Measured: "~10x", Note: "10 setups/ms into 800 kbps"},
		{Metric: "legit goodput during flood", Paper: "collapses", Measured: fmt.Sprintf("%d/50", before), Failed: before > 5},
		{Metric: "pushback deployed (aggregate identified)", Paper: "yes", Measured: fmt.Sprintf("%v", deployed),
			Note: "signature: key-setup packets to the service address", Failed: !deployed},
		{Metric: "legit goodput after pushback", Paper: "restored", Measured: fmt.Sprintf("%d/50", after), Failed: after < 45},
		{Metric: "flood dropped upstream", Paper: "-", Measured: fmt.Sprintf("%d pkts", lim.dropped), Note: ""},
	}}, nil
}

// selection is how a §3.5 source chooses among a multihomed site's
// neutralizer addresses (one per provider, from the site's DNS record:
// IPv6 multi-address selection, RFC 3484, is the same problem), and how
// it learns from the outcome of its last choice.
type selection interface {
	// pick chooses among candidates (never empty).
	pick(candidates []netip.Addr) netip.Addr
	// feedback reports whether using addr worked and its round-trip time
	// (0 if unknown).
	feedback(addr netip.Addr, ok bool, rtt time.Duration)
}

// staticPick always takes the first candidate, as a naive resolver takes
// the first record.
type staticPick struct{}

func (staticPick) pick(c []netip.Addr) netip.Addr           { return c[0] }
func (staticPick) feedback(netip.Addr, bool, time.Duration) {}

// roundRobin cycles through the candidates, spreading load evenly.
type roundRobin struct {
	mu sync.Mutex
	i  int
}

func (r *roundRobin) pick(c []netip.Addr) netip.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := c[r.i%len(c)]
	r.i++
	return a
}

func (*roundRobin) feedback(netip.Addr, bool, time.Duration) {}

// latencyWeighted picks in proportion to the inverse of each candidate's
// smoothed RTT: latency-probing load balance, the paper's "borrow any
// technique that can balance traffic load".
type latencyWeighted struct {
	mu  sync.Mutex
	rtt map[netip.Addr]float64 // smoothed, seconds
	rng *mathrand.Rand
}

// newLatencyWeighted seeds the strategy's RNG with a constant, so a run
// replays.
func newLatencyWeighted() *latencyWeighted {
	return &latencyWeighted{rtt: make(map[netip.Addr]float64), rng: mathrand.New(mathrand.NewSource(5))}
}

func (w *latencyWeighted) pick(c []netip.Addr) netip.Addr {
	w.mu.Lock()
	defer w.mu.Unlock()
	weights := make([]float64, len(c))
	total := 0.0
	for i, a := range c {
		r, ok := w.rtt[a]
		if !ok || r <= 0 {
			r = 0.010 // optimistic prior: 10ms
		}
		weights[i] = 1 / r
		total += weights[i]
	}
	x := w.rng.Float64() * total
	for i, wt := range weights {
		if x < wt {
			return c[i]
		}
		x -= wt
	}
	return c[len(c)-1]
}

// feedback folds the sample into an EWMA with alpha 1/4; a failure counts
// as a 1-second RTT, so the candidate is deprioritized but not banned.
func (w *latencyWeighted) feedback(addr netip.Addr, ok bool, rtt time.Duration) {
	sample := rtt.Seconds()
	if !ok {
		sample = 1.0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if old, seen := w.rtt[addr]; seen {
		sample = old + (sample-old)/4
	}
	w.rtt[addr] = sample
}

// trialAndError sticks with a working candidate and moves to the next on
// failure: the paper's closing fallback, "two hosts may always use
// trial-and-error to find a path that's working for them".
type trialAndError struct {
	mu      sync.Mutex
	current netip.Addr
	failed  map[netip.Addr]bool
}

// pick keeps the current choice while it has not failed, else takes the
// first candidate that has not; when every one has failed, it forgives
// them all and starts again from the top.
func (t *trialAndError) pick(c []netip.Addr) netip.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.current.IsValid() && !t.failed[t.current] {
		return t.current
	}
	for _, a := range c {
		if !t.failed[a] {
			t.current = a
			return a
		}
	}
	t.failed = make(map[netip.Addr]bool)
	t.current = c[0]
	return c[0]
}

func (t *trialAndError) feedback(addr netip.Addr, ok bool, _ time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		delete(t.failed, addr)
		t.current = addr
	} else {
		t.failed[addr] = true
	}
}

// RunA6 compares §3.5 selection strategies for a dual-homed site whose
// providers have asymmetric latency, then fails the fast provider and
// checks trial-and-error recovery.
func RunA6(Scale) (*Result, error) {
	type probeResult struct {
		uses map[netip.Addr]int
		mean time.Duration
		ok   int
	}
	fast := netip.MustParseAddr("10.200.0.1")
	slow := netip.MustParseAddr("10.201.0.1")

	candidates := []netip.Addr{fast, slow}
	runStrategy := func(strat selection, failFastAfter int) probeResult {
		sim := netem.NewSimulator(benchStart, 66)
		src := sim.MustAddNode("src", "", f1Ann)
		p1 := sim.MustAddNode("provider-fast", "", fast)
		p2 := sim.MustAddNode("provider-slow", "", slow)
		sim.Connect(src, p1, netem.LinkConfig{Delay: 5 * time.Millisecond})
		sim.Connect(src, p2, netem.LinkConfig{Delay: 40 * time.Millisecond})
		sim.BuildRoutes()
		for _, n := range []*netem.Node{p1, p2} {
			node := n
			n.SetHandler(func(_ time.Time, pkt []byte) {
				srcA, dstA, err := wire.IPv4Addrs(pkt)
				if err != nil {
					return
				}
				echo, _ := wire.AppendUDP(nil, dstA, srcA, 7, 7, []byte("echo")) // IPv4Addrs returns IPv4
				_ = node.Send(echo)
			})
		}
		res := probeResult{uses: map[netip.Addr]int{}}
		var sumRTT time.Duration
		const probes = 60
		fastDown := false
		p1.AddTransitHook(func(time.Time, *netem.Node, []byte) netem.Verdict {
			if fastDown {
				return netem.Verdict{Drop: true}
			}
			return netem.Deliver
		})

		var doProbe func(i int)
		doProbe = func(i int) {
			if i >= probes {
				return
			}
			if failFastAfter > 0 && i == failFastAfter {
				fastDown = true
			}
			target := strat.pick(candidates)
			res.uses[target]++
			sent := sim.Now()
			answered := false
			src.SetHandler(func(now time.Time, pkt []byte) {
				if answered {
					return
				}
				answered = true
				rtt := now.Sub(sent)
				strat.feedback(target, true, rtt)
				res.ok++
				sumRTT += rtt
				sim.Schedule(time.Millisecond, func() { doProbe(i + 1) })
			})
			ping, _ := wire.AppendUDP(nil, f1Ann, target, 7, 7, []byte("ping")) // IPv4 addresses
			_ = src.Send(ping)
			// Timeout: 200ms without an answer is a failure.
			sim.Schedule(200*time.Millisecond, func() {
				if !answered {
					answered = true
					strat.feedback(target, false, 0)
					sim.Schedule(time.Millisecond, func() { doProbe(i + 1) })
				}
			})
		}
		doProbe(0)
		sim.Run()
		if res.ok > 0 {
			res.mean = sumRTT / time.Duration(res.ok)
		}
		return res
	}

	rows := []Row{}
	for _, tc := range []struct {
		name  string
		strat selection
	}{
		{"static", staticPick{}},
		{"round-robin", &roundRobin{}},
		{"latency-weighted", newLatencyWeighted()},
	} {
		r := runStrategy(tc.strat, 0)
		rows = append(rows, Row{
			Metric: fmt.Sprintf("%s: fast/slow split", tc.name), Paper: "-",
			Measured: fmt.Sprintf("%d/%d", r.uses[fast], r.uses[slow]),
			Note:     fmt.Sprintf("mean RTT %v", r.mean.Round(time.Millisecond)),
		})
	}
	// Trial-and-error under failure of the fast provider.
	r := runStrategy(&trialAndError{failed: map[netip.Addr]bool{}}, 20)
	// The path is found when the failure costs a few timed-out probes.
	rows = append(rows, Row{
		Metric: "trial-and-error: probes answered despite provider failure", Paper: "path found",
		Measured: fmt.Sprintf("%d/60", r.ok),
		Note:     fmt.Sprintf("fast provider killed after probe 20; split %d/%d", r.uses[fast], r.uses[slow]),
		Failed:   r.ok < 55,
	})
	return &Result{ID: "A6", Title: "Multi-homed neutralizer selection", Rows: rows}, nil
}

// markDSCP rewrites p's DSCP in place and repairs the header checksum.
func markDSCP(p []byte, dscp uint8) []byte {
	p[1] = dscp << 2
	_ = wire.RepairChecksum(p) // p is a whole option-less header
	return p
}

// The DSCP codepoints A8 sends: best effort, and expedited forwarding
// (low loss, low latency: VoIP's tier).
const (
	dscpBestEffort uint8 = 0
	dscpExpedited  uint8 = 46
)

// perClassCap bounds each class FIFO of a priorityQueue, in packets.
const perClassCap = 8

// priorityQueue is the tiered service §3.4 permits an ISP to sell: a
// strict-priority netem.Queue of two classes, EF and above ahead of
// everything else. It classifies on the packet's DSCP alone, which the
// neutralizer preserves, so it needs no knowledge of who the endpoints
// are.
type priorityQueue struct {
	classes [2][]*netem.Packet
}

// Enqueue implements netem.Queue.
func (q *priorityQueue) Enqueue(p *netem.Packet) bool {
	c := 1
	if p.Pkt[1]>>2 >= dscpExpedited {
		c = 0
	}
	if len(q.classes[c]) >= perClassCap {
		return false
	}
	q.classes[c] = append(q.classes[c], p)
	return true
}

// Dequeue implements netem.Queue: strict priority.
func (q *priorityQueue) Dequeue() *netem.Packet {
	for c := range q.classes {
		if len(q.classes[c]) > 0 {
			p := q.classes[c][0]
			q.classes[c] = q.classes[c][1:]
			return p
		}
	}
	return nil
}

// Len implements netem.Queue.
func (q *priorityQueue) Len() int { return len(q.classes[0]) + len(q.classes[1]) }

// reservations is an RSVP router's guaranteed-service table (the IntServ
// model of §3.4): per-flow state keyed on the visible (src, dst) address
// pair, which is all the router can see of a flow.
type reservations struct {
	mu    sync.Mutex
	flows map[[2]netip.Addr]bool
}

// reserve admits a reservation for the flow (src, dst), or reports false
// if that pair already holds one.
func (t *reservations) reserve(src, dst netip.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]netip.Addr{src, dst}
	if t.flows[k] {
		return false
	}
	t.flows[k] = true
	return true
}

// RunA8 demonstrates §3.4 end to end: DSCP-tiered service works through
// the neutralizer, and guaranteed service is recovered via dynamic
// addresses.
func RunA8(Scale) (*Result, error) {
	// (1) DSCP preservation.
	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	marked := markDSCP(bytes.Clone(env.DataPkt), dscpExpedited)
	outs, err := env.Neut.ProcessScratch(core.NewScratch(), marked)
	if err != nil {
		return nil, err
	}
	var outIP wire.IPv4
	if err := outIP.DecodeFromBytes(outs[0].Pkt); err != nil {
		return nil, err
	}
	dscpPreserved := outIP.DSCP() == dscpExpedited

	// (2) EF beats BE through a congested priority queue.
	sim := netem.NewSimulator(benchStart, 81)
	a := sim.MustAddNode("a", "", netip.MustParseAddr("10.0.0.1"))
	b := sim.MustAddNode("b", "", netip.MustParseAddr("10.0.0.2"))
	link := sim.Connect(a, b, netem.LinkConfig{Delay: time.Millisecond, RateBps: 80_000, QueueLen: 8})
	if err := link.SetQueue(a, &priorityQueue{}); err != nil {
		return nil, err
	}
	sim.BuildRoutes()
	got := map[uint8]int{}
	b.SetHandler(func(_ time.Time, pkt []byte) { got[pkt[1]>>2]++ })
	mk := func(dscp uint8) []byte {
		pkt, _ := wire.AppendUDP(nil, a.Addr(), b.Addr(), 1, 2, make([]byte, 100)) // IPv4 addresses
		return markDSCP(pkt, dscp)
	}
	for i := 0; i < 40; i++ {
		sim.Schedule(time.Duration(i)*12800*time.Microsecond, func() {
			_ = a.Send(mk(dscpExpedited))
			_ = a.Send(mk(dscpBestEffort))
		})
	}
	sim.Run()

	// (3) Guaranteed service. Two customers answer Ann through a
	// neutralizer with a dynamic-address pool, and a router reserves on
	// each output's visible (src, dst). Anonymized, both leave as
	// (anycast, Ann), so the second reservation is refused; with
	// shim.FlagDynamicAddr each flow leaves from an address of its own.
	cfg := env.NeutralizerConfig()
	cfg.DynAddrPool = netip.MustParsePrefix("10.250.0.0/24")
	neut, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rsvp := reservations{flows: map[[2]netip.Addr]bool{}}
	s := core.NewScratch()
	var separated [2]bool // per pass: every flow got a reservation of its own
	for pass, flags := range []uint8{0, shim.FlagDynamicAddr} {
		separated[pass] = true
		for _, customer := range []netip.Addr{f1Google, f1YouTube} {
			pkt, err := shim.BuildPacket(customer, f1Anycast, 0, &shim.Header{Type: shim.TypeReturn, Flags: flags,
				InnerProto: wire.ProtoUDP, Epoch: env.Epoch, Nonce: env.Nonce, ClearAddr: f1Ann}, nil)
			if err != nil {
				return nil, err
			}
			s.Reset()
			outs, err := neut.ProcessScratch(s, pkt)
			if err != nil {
				return nil, err
			}
			src, dst, err := wire.IPv4Addrs(outs[0].Pkt)
			if err != nil {
				return nil, err
			}
			separated[pass] = rsvp.reserve(src, dst) && separated[pass]
		}
	}

	return &Result{ID: "A8", Title: "Tiered + guaranteed service (§3.4)", Rows: []Row{
		passRow("neutralizer preserves DSCP", "yes", dscpPreserved, ""),
		{Metric: "EF vs BE delivery under 2x congestion", Paper: "EF wins",
			Measured: fmt.Sprintf("%d vs %d", got[dscpExpedited], got[dscpBestEffort]),
			Failed:   got[dscpExpedited] <= got[dscpBestEffort]},
		passRow("per-flow reservation on anycast traffic", "impossible", !separated[0], "all customers collapse to one visible flow"),
		passRow("per-flow reservation with dynamic addresses", "works", separated[1], "the §3.4 remedy"),
	}}, nil
}
