package eval

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// ---- A5: pushback ----

func setupPkt(t testing.TB, src, dst netip.Addr) []byte {
	t.Helper()
	p, err := shim.BuildPacket(src, dst, 0, &shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: make([]byte, 66)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func dataPkt(t testing.TB, src, dst netip.Addr) []byte {
	t.Helper()
	p, err := shim.BuildPacket(src, dst, 0, &shim.Header{Type: shim.TypeData, Nonce: keys.Nonce{1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refusingDetector returns a detector whose inner queue is full, so it
// records every packet refuse offers it.
func refusingDetector() *floodDetector {
	q := netem.NewFIFOQueue(1)
	q.Enqueue(&netem.Packet{})
	return &floodDetector{Queue: q}
}

func refuse(t testing.TB, d *floodDetector, pkts ...[]byte) {
	t.Helper()
	for _, p := range pkts {
		if d.Enqueue(&netem.Packet{Pkt: p}) {
			t.Fatal("a full queue accepted a packet")
		}
	}
}

func TestAggregateMatches(t *testing.T) {
	setup := setupPkt(t, f1Ann, f1Anycast)
	data := dataPkt(t, f1Ann, f1Anycast)

	byDst := aggregate{dst: f1Anycast}
	if !byDst.matches(setup) || !byDst.matches(data) {
		t.Error("dst aggregate should match both")
	}
	if byDst.matches(setupPkt(t, f1Ann, netip.MustParseAddr("9.9.9.9"))) {
		t.Error("wrong dst matched")
	}
	byType := aggregate{dst: f1Anycast, shimType: shim.TypeKeySetupRequest}
	if !byType.matches(setup) || byType.matches(data) {
		t.Error("shim-type aggregate selectivity")
	}
	if byType.matches(plainUDP(f1Ann, f1Anycast, 1, 2, nil)) {
		t.Error("shim-type aggregate matched a non-shim packet")
	}
	byPrefix := aggregate{dst: f1Anycast, srcPrefix: netip.MustParsePrefix("172.16.0.0/16")}
	if !byPrefix.matches(setup) {
		t.Error("prefix aggregate should match")
	}
	if byPrefix.matches(setupPkt(t, netip.MustParseAddr("192.0.2.1"), f1Anycast)) {
		t.Error("out-of-prefix matched")
	}
	if byDst.matches([]byte{1, 2}) {
		t.Error("malformed packet matched")
	}
}

func TestDetectorIdentifiesFloodSignature(t *testing.T) {
	d := refusingDetector()
	// Flood: key-setup packets from one /16, to the f1Anycast.
	for i := 0; i < 90; i++ {
		refuse(t, d, setupPkt(t, netip.AddrFrom4([4]byte{192, 0, byte(i % 4), byte(i)}), f1Anycast))
	}
	// Background noise.
	for i := 0; i < 10; i++ {
		refuse(t, d, dataPkt(t, f1Ann, f1Anycast))
	}
	agg, ok := d.identify()
	if !ok {
		t.Fatal("no aggregate identified")
	}
	if agg.dst != f1Anycast {
		t.Errorf("dst = %v", agg.dst)
	}
	if agg.shimType != shim.TypeKeySetupRequest {
		t.Errorf("shim type = %v", agg.shimType)
	}
	if !agg.srcPrefix.IsValid() || !agg.srcPrefix.Contains(netip.MustParseAddr("192.0.1.1")) {
		t.Errorf("src prefix = %v", agg.srcPrefix)
	}
}

func TestDetectorSpoofedSourcesFallBackToTypeSignature(t *testing.T) {
	d := refusingDetector()
	// Spoofed flood: sources scattered over the whole space.
	for i := 0; i < 100; i++ {
		refuse(t, d, setupPkt(t, netip.AddrFrom4([4]byte{byte(i*7 + 1), byte(i * 13), byte(i * 3), byte(i)}), f1Anycast))
	}
	agg, ok := d.identify()
	if !ok {
		t.Fatal("no aggregate identified")
	}
	if agg.srcPrefix.IsValid() {
		t.Errorf("spoofed flood should not yield a source prefix, got %v", agg.srcPrefix)
	}
	if agg.shimType != shim.TypeKeySetupRequest || agg.dst != f1Anycast {
		t.Error("type+dst signature expected under spoofing")
	}
}

func TestDetectorNoDominantAggregate(t *testing.T) {
	d := refusingDetector()
	if _, ok := d.identify(); ok {
		t.Error("empty detector identified something")
	}
	// Drops spread evenly over three destinations: none covers half.
	for i := 0; i < 50; i++ {
		for _, dst := range []string{"10.200.0.1", "10.201.0.1", "10.202.0.1"} {
			refuse(t, d, dataPkt(t, f1Ann, netip.MustParseAddr(dst)))
		}
	}
	if agg, ok := d.identify(); ok {
		t.Errorf("a third of the drops identified %+v", agg)
	}
	if len(d.samples) != 150 {
		t.Errorf("samples = %d", len(d.samples))
	}
}

func TestLimiterRateLimitsAggregate(t *testing.T) {
	now := time.Unix(0, 0)
	// Tiny rate: the burst passes, then the aggregate is dropped.
	l := &limiter{agg: aggregate{dst: f1Anycast, shimType: shim.TypeKeySetupRequest}, bucket: newTokenBucket(100, limiterBurstBytes)}
	flood := setupPkt(t, f1Ann, f1Anycast)
	passed, dropped := 0, 0
	for i := 0; i < 2*limiterBurstBytes/len(flood); i++ {
		if l.hook(now, nil, flood).Drop {
			dropped++
		} else {
			passed++
		}
	}
	if passed != limiterBurstBytes/len(flood) || dropped == 0 {
		t.Fatalf("passed=%d dropped=%d: limiter should pass the %d-byte burst then drop", passed, dropped, limiterBurstBytes)
	}
	if l.dropped != uint64(dropped) {
		t.Errorf("limiter counted %d drops, hook dropped %d", l.dropped, dropped)
	}
	// Non-matching traffic unaffected even when the bucket is empty.
	if l.hook(now, nil, dataPkt(t, f1Ann, f1Anycast)).Drop {
		t.Error("non-matching packet dropped")
	}
}

func TestTokenBucketConformance(t *testing.T) {
	// 8000 bps = 1000 bytes/sec; burst 500 bytes.
	tb := newTokenBucket(8000, 500)
	now := time.Unix(0, 0)
	if !tb.allow(now, 500) {
		t.Fatal("initial burst should conform")
	}
	if tb.allow(now, 100) {
		t.Error("bucket should be empty")
	}
	// After 100ms, 100 bytes of tokens accumulate.
	now = now.Add(100 * time.Millisecond)
	if !tb.allow(now, 100) {
		t.Error("refilled tokens should admit 100 bytes")
	}
	if tb.allow(now, 10) {
		t.Error("bucket drained again")
	}
	// Tokens cap at burst.
	now = now.Add(time.Hour)
	if !tb.allow(now, 500) {
		t.Error("bucket should cap at burst depth")
	}
	if tb.allow(now, 200) {
		t.Error("cap exceeded")
	}
}

// TestWatchQueueReportsExactlyTheRefused pins the watched queue: the
// detector sees exactly the packets the inner FIFO refused — as many as
// the link counts dropped, identified here by per-packet source
// addresses — and every accepted packet is delivered in order with its
// bytes untouched.
func TestWatchQueueReportsExactlyTheRefused(t *testing.T) {
	s := netem.NewSimulator(benchStart, 1)
	a := s.MustAddNode("a", "", netip.MustParseAddr("172.31.0.1"))
	b := s.MustAddNode("b", "", f1Anycast)
	link := s.Connect(a, b, netem.LinkConfig{Delay: time.Millisecond, RateBps: 800_000})
	s.BuildRoutes()
	det := &floodDetector{Queue: netem.NewFIFOQueue(4)}
	if err := link.SetQueue(a, det); err != nil {
		t.Fatal(err)
	}
	var delivered [][]byte
	b.SetHandler(func(_ time.Time, pkt []byte) { delivered = append(delivered, bytes.Clone(pkt)) })

	// Two bursts of 20: the first overflows an empty queue, the second a
	// partly drained one. Packet i carries source 192.0.2.i.
	var sent [][]byte
	for i := 0; i < 40; i++ {
		sent = append(sent, setupPkt(t, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), f1Anycast))
	}
	burst := func(pkts [][]byte) func() {
		return func() {
			for _, p := range pkts {
				_ = a.Send(p)
			}
		}
	}
	s.Schedule(0, burst(sent[:20]))
	s.Schedule(3*time.Millisecond, burst(sent[20:]))
	s.Run()

	dropped := uint64(s.Metrics().Snapshot().Get("netem_link_queue_drops_total").Value)
	if dropped == 0 || len(delivered) == 0 {
		t.Fatalf("degenerate run: dropped=%d delivered=%d", dropped, len(delivered))
	}
	if got := len(det.samples); uint64(got) != dropped {
		t.Fatalf("detector observed %d packets, link dropped %d", got, dropped)
	}
	if len(delivered)+int(dropped) != len(sent) {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(delivered), dropped, len(sent))
	}
	// Walk the sent sequence: each packet is either the next delivery
	// (bytes identical) or the next refusal the detector recorded.
	di, ri := 0, 0
	for i, p := range sent {
		if di < len(delivered) && bytes.Equal(delivered[di], p) {
			di++
			continue
		}
		src, _, _ := wire.IPv4Addrs(p)
		if ri >= len(det.samples) || det.samples[ri].src != src {
			t.Fatalf("packet %d (%v) was neither delivered intact nor the next observed refusal", i, src)
		}
		ri++
	}
	if di != len(delivered) || ri != len(det.samples) {
		t.Fatalf("matched %d/%d deliveries and %d/%d refusals", di, len(delivered), ri, len(det.samples))
	}
}

// ---- A6: multihomed neutralizer selection ----

var (
	prov1 = netip.MustParseAddr("10.200.0.1")
	prov2 = netip.MustParseAddr("10.201.0.1")
	prov3 = netip.MustParseAddr("10.202.0.1")
)

// pickN draws n picks among c and returns how often each came up.
func pickN(s selection, c []netip.Addr, n int) map[netip.Addr]int {
	u := make(map[netip.Addr]int)
	for i := 0; i < n; i++ {
		u[s.pick(c)]++
	}
	return u
}

func TestStaticAlwaysFirst(t *testing.T) {
	if u := pickN(staticPick{}, []netip.Addr{prov1, prov2}, 10); u[prov1] != 10 {
		t.Errorf("static picks = %v, want all on %v", u, prov1)
	}
}

func TestRoundRobinEvenSpread(t *testing.T) {
	u := pickN(&roundRobin{}, []netip.Addr{prov1, prov2, prov3}, 30)
	if u[prov1] != 10 || u[prov2] != 10 || u[prov3] != 10 {
		t.Errorf("uses = %v, want even 10/10/10", u)
	}
}

func TestWeightedPrefersFasterProvider(t *testing.T) {
	w := newLatencyWeighted()
	// Teach it: prov1 is 10x faster.
	for i := 0; i < 20; i++ {
		w.feedback(prov1, true, 10*time.Millisecond)
		w.feedback(prov2, true, 100*time.Millisecond)
	}
	u := pickN(w, []netip.Addr{prov1, prov2}, 1000)
	// Expected ratio ~10:1.
	if u[prov1] < 800 {
		t.Errorf("fast provider picked %d/1000, want >= 800", u[prov1])
	}
	if u[prov2] == 0 {
		t.Error("slow provider should still get some traffic (probing)")
	}
}

func TestWeightedFailuresDeprioritize(t *testing.T) {
	w := newLatencyWeighted()
	for i := 0; i < 20; i++ {
		w.feedback(prov1, false, 0) // provider 1 failing
		w.feedback(prov2, true, 20*time.Millisecond)
	}
	if u := pickN(w, []netip.Addr{prov1, prov2}, 500); u[prov2] < 400 {
		t.Errorf("healthy provider picked %d/500", u[prov2])
	}
}

func TestTrialAndErrorSticksThenFailsOver(t *testing.T) {
	s := &trialAndError{failed: map[netip.Addr]bool{}}
	c := []netip.Addr{prov1, prov2}
	// Sticks with the first working provider.
	if a := s.pick(c); a != prov1 {
		t.Fatalf("first pick = %v", a)
	}
	s.feedback(prov1, true, time.Millisecond)
	for i := 0; i < 5; i++ {
		if s.pick(c) != prov1 {
			t.Fatal("should stick with working provider")
		}
	}
	// Provider 1 fails: next pick moves to provider 2 and sticks.
	s.feedback(prov1, false, 0)
	if got := s.pick(c); got != prov2 {
		t.Fatalf("failover pick = %v, want %v", got, prov2)
	}
	s.feedback(prov2, true, time.Millisecond)
	if s.pick(c) != prov2 {
		t.Error("should stick with prov2 after failover")
	}
	// Everything fails: forgiveness resets and retries from the top.
	s.feedback(prov2, false, 0)
	if got := s.pick(c); got != prov1 {
		t.Errorf("all-failed pick = %v, want forgiveness back to %v", got, prov1)
	}
}

// ---- A8: tiered and guaranteed service ----

// dscpPacket is a queued packet carrying dscp in its TOS octet.
func dscpPacket(dscp uint8) *netem.Packet {
	return &netem.Packet{Pkt: []byte{0x45, dscp << 2}}
}

// TestDefaultClassifier pins which class each codepoint lands in: EF
// (46) and CS6 network control (48) in the first, the AF classes, best
// effort and CS1 scavenger in the second.
func TestDefaultClassifier(t *testing.T) {
	cases := []struct {
		dscp uint8
		want int
	}{
		{dscpExpedited, 0}, {48, 0},
		{10, 1}, {34, 1},
		{dscpBestEffort, 1}, {8, 1},
	}
	for _, c := range cases {
		q := &priorityQueue{}
		q.Enqueue(dscpPacket(c.dscp))
		if len(q.classes[c.want]) != 1 {
			t.Errorf("DSCP %d: class lengths %d/%d, want it in class %d",
				c.dscp, len(q.classes[0]), len(q.classes[1]), c.want)
		}
	}
}

// TestPriorityQueueStrictOrdering pins the two classes: EF and above
// (network control, CS6 = 48) leave first, everything else (AF41 = 34
// included) after, each class in arrival order.
func TestPriorityQueueStrictOrdering(t *testing.T) {
	q := &priorityQueue{}
	for _, d := range []uint8{dscpBestEffort, dscpExpedited, 34, 48, dscpExpedited} {
		q.Enqueue(dscpPacket(d))
	}
	var order []uint8
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		order = append(order, p.Pkt[1]>>2)
	}
	want := []uint8{dscpExpedited, 48, dscpExpedited, dscpBestEffort, 34}
	if !bytes.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestPriorityQueuePerClassCaps(t *testing.T) {
	q := &priorityQueue{}
	refused := 0
	for i := 0; i < perClassCap+2; i++ {
		if !q.Enqueue(dscpPacket(dscpBestEffort)) {
			refused++
		}
	}
	if q.Len() != perClassCap {
		t.Errorf("Len = %d, want %d", q.Len(), perClassCap)
	}
	if refused != 2 {
		t.Errorf("best-effort class refused %d of %d at a cap of %d, want 2", refused, perClassCap+2, perClassCap)
	}
	// The EF class is unaffected by best-effort pressure.
	if !q.Enqueue(dscpPacket(dscpExpedited)) {
		t.Error("EF enqueue rejected despite free class queue")
	}
}

func TestPriorityQueueEmptyDequeue(t *testing.T) {
	if (&priorityQueue{}).Dequeue() != nil {
		t.Error("empty dequeue should be nil")
	}
}

// TestTableAdmissionControl pins the table's one admission rule: a pair
// holds at most one reservation, and distinct pairs are admitted apart.
func TestTableAdmissionControl(t *testing.T) {
	tbl := reservations{flows: map[[2]netip.Addr]bool{}}
	srcA, srcB := netip.MustParseAddr("172.16.0.1"), netip.MustParseAddr("172.16.0.2")
	dstX := netip.MustParseAddr("10.10.0.1")
	if !tbl.reserve(srcA, dstX) {
		t.Fatal("first reservation refused")
	}
	if tbl.reserve(srcA, dstX) {
		t.Error("duplicate reservation admitted")
	}
	if !tbl.reserve(srcB, dstX) {
		t.Error("second source to the same destination refused")
	}
	if !tbl.reserve(dstX, srcA) {
		t.Error("reverse direction refused: (dst, src) is its own pair")
	}
	if len(tbl.flows) != 3 {
		t.Errorf("reservations = %d, want 3", len(tbl.flows))
	}
}

// TestAnonymizedFlowsCollapse is the §3.4 problem at the reservation
// table: behind the anycast address, two customers' flows to one outside
// host are the same visible pair, so the second reservation is refused,
// while per-flow dynamic addresses make them two.
func TestAnonymizedFlowsCollapse(t *testing.T) {
	tbl := reservations{flows: map[[2]netip.Addr]bool{}}
	if !tbl.reserve(f1Anycast, f1Ann) {
		t.Fatal("first reservation refused")
	}
	if tbl.reserve(f1Anycast, f1Ann) {
		t.Error("second anonymized flow reserved: the pair is already held")
	}
	for _, dyn := range []string{"10.250.0.1", "10.250.0.2"} {
		if !tbl.reserve(netip.MustParseAddr(dyn), f1Ann) {
			t.Errorf("dynamic-address flow %s refused", dyn)
		}
	}
	if len(tbl.flows) != 3 {
		t.Errorf("reservations = %d, want 3", len(tbl.flows))
	}
}
