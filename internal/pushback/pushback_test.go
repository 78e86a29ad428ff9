package pushback

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

var (
	victim  = netip.MustParseAddr("10.200.0.1")
	goodSrc = netip.MustParseAddr("172.16.1.10")
)

func setupPkt(t testing.TB, src, dst netip.Addr) []byte {
	t.Helper()
	buf := wire.NewSerializeBuffer(96, 0)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoShim, Src: src, Dst: dst},
		&shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: make([]byte, 66)},
	); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func dataPkt(t testing.TB, src, dst netip.Addr) []byte {
	t.Helper()
	buf := wire.NewSerializeBuffer(64, 0)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoShim, Src: src, Dst: dst},
		&shim.Header{Type: shim.TypeData, Nonce: keys.Nonce{1}},
	); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAggregateMatches(t *testing.T) {
	setup := setupPkt(t, goodSrc, victim)
	data := dataPkt(t, goodSrc, victim)

	byDst := Aggregate{Dst: victim}
	if !byDst.Matches(setup) || !byDst.Matches(data) {
		t.Error("dst aggregate should match both")
	}
	if byDst.Matches(setupPkt(t, goodSrc, netip.MustParseAddr("9.9.9.9"))) {
		t.Error("wrong dst matched")
	}
	byType := Aggregate{Dst: victim, ShimType: shim.TypeKeySetupRequest}
	if !byType.Matches(setup) || byType.Matches(data) {
		t.Error("shim-type aggregate selectivity")
	}
	byPrefix := Aggregate{Dst: victim, SrcPrefix: netip.MustParsePrefix("172.16.0.0/16")}
	if !byPrefix.Matches(setup) {
		t.Error("prefix aggregate should match")
	}
	if byPrefix.Matches(setupPkt(t, netip.MustParseAddr("192.0.2.1"), victim)) {
		t.Error("out-of-prefix matched")
	}
	if (Aggregate{Dst: victim}).Matches([]byte{1, 2}) {
		t.Error("malformed packet matched")
	}
}

func TestDetectorIdentifiesFloodSignature(t *testing.T) {
	d := NewDetector()
	// Flood: key-setup packets from one /16, to the victim.
	for i := 0; i < 90; i++ {
		src := netip.AddrFrom4([4]byte{192, 0, byte(i % 4), byte(i)})
		d.Observe(setupPkt(t, src, victim))
	}
	// Background noise.
	for i := 0; i < 10; i++ {
		d.Observe(dataPkt(t, goodSrc, victim))
	}
	agg, ok := d.Identify(0.5)
	if !ok {
		t.Fatal("no aggregate identified")
	}
	if agg.Dst != victim {
		t.Errorf("dst = %v", agg.Dst)
	}
	if agg.ShimType != shim.TypeKeySetupRequest {
		t.Errorf("shim type = %v", agg.ShimType)
	}
	if !agg.SrcPrefix.IsValid() || !agg.SrcPrefix.Contains(netip.MustParseAddr("192.0.1.1")) {
		t.Errorf("src prefix = %v", agg.SrcPrefix)
	}
}

func TestDetectorSpoofedSourcesFallBackToTypeSignature(t *testing.T) {
	d := NewDetector()
	// Spoofed flood: sources scattered over the whole space.
	for i := 0; i < 100; i++ {
		src := netip.AddrFrom4([4]byte{byte(i*7 + 1), byte(i * 13), byte(i * 3), byte(i)})
		d.Observe(setupPkt(t, src, victim))
	}
	agg, ok := d.Identify(0.5)
	if !ok {
		t.Fatal("no aggregate identified")
	}
	if agg.SrcPrefix.IsValid() {
		t.Errorf("spoofed flood should not yield a source prefix, got %v", agg.SrcPrefix)
	}
	if agg.ShimType != shim.TypeKeySetupRequest || agg.Dst != victim {
		t.Error("type+dst signature expected under spoofing")
	}
}

func TestDetectorNoDominantAggregate(t *testing.T) {
	d := NewDetector()
	if _, ok := d.Identify(0.5); ok {
		t.Error("empty detector identified something")
	}
	// Drops spread evenly over two destinations: no 80% signature.
	for i := 0; i < 50; i++ {
		d.Observe(dataPkt(t, goodSrc, victim))
		d.Observe(dataPkt(t, goodSrc, netip.MustParseAddr("10.201.0.1")))
	}
	if _, ok := d.Identify(0.8); ok {
		t.Error("no aggregate should cover 80%")
	}
	if len(d.samples) != 100 {
		t.Errorf("samples = %d", len(d.samples))
	}
	d.Reset()
	if len(d.samples) != 0 {
		t.Error("Reset")
	}
}

func TestLimiterRateLimitsAggregate(t *testing.T) {
	now := time.Unix(0, 0)
	agg := Aggregate{Dst: victim, ShimType: shim.TypeKeySetupRequest}
	// Tiny rate: the burst passes, then the aggregate is dropped.
	l := NewLimiter(agg, 100, now.Add(time.Minute))
	hook := l.Hook()

	flood := setupPkt(t, goodSrc, victim)
	passed, dropped := 0, 0
	for i := 0; i < 2*limiterBurstBytes/len(flood); i++ {
		if hook(now, nil, flood).Drop {
			dropped++
		} else {
			passed++
		}
	}
	if passed != limiterBurstBytes/len(flood) || dropped == 0 {
		t.Fatalf("passed=%d dropped=%d: limiter should pass the %d-byte burst then drop", passed, dropped, limiterBurstBytes)
	}
	if l.Passed != uint64(passed) || l.Dropped != uint64(dropped) {
		t.Error("counters mismatch")
	}
	// Non-matching traffic unaffected even when bucket is empty.
	if hook(now, nil, dataPkt(t, goodSrc, victim)).Drop {
		t.Error("non-matching packet dropped")
	}
	// Expired limiter passes everything.
	if hook(now.Add(2*time.Minute), nil, flood).Drop {
		t.Error("expired limiter still dropping")
	}
}

// TestPushbackRestoresGoodput runs the full A5 story on a topology:
// an attacker floods key setups through an upstream router; the victim
// detects, pushes back, and legitimate data traffic flows again.
func TestPushbackRestoresGoodput(t *testing.T) {
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	s := netem.NewSimulator(start, 1)
	atk := s.MustAddNode("attacker", "att", netip.MustParseAddr("192.0.2.1"))
	good := s.MustAddNode("good", "att", goodSrc)
	up := s.MustAddNode("upstream", "att", netip.MustParseAddr("172.31.0.1"))
	vic := s.MustAddNode("victim", "cogent", victim)
	s.Connect(atk, up, netem.LinkConfig{Delay: time.Millisecond})
	s.Connect(good, up, netem.LinkConfig{Delay: time.Millisecond})
	// Bottleneck into the victim; the victim observes what its egress
	// queue refuses.
	bottleneck := s.Connect(up, vic, netem.LinkConfig{Delay: time.Millisecond, RateBps: 800_000})
	s.BuildRoutes()

	det := NewDetector()
	if err := bottleneck.SetQueue(up, det.WatchQueue(netem.NewFIFOQueue(16))); err != nil {
		t.Fatal(err)
	}
	received := map[shim.Type]int{}
	vic.SetHandler(func(_ time.Time, pkt []byte) {
		tp, _ := shim.PeekType(pkt[wire.IPv4HeaderLen:])
		received[tp]++
	})

	floodPkt := setupPkt(t, netip.MustParseAddr("192.0.2.1"), victim)
	goodPkt := dataPkt(t, goodSrc, victim)
	// Phase 1 (0-500ms): flood at ~10x bottleneck + trickle of good data.
	for i := 0; i < 500; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			for j := 0; j < 10; j++ {
				_ = atk.Send(floodPkt)
			}
		})
	}
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i*10)*time.Millisecond, func() { _ = good.Send(goodPkt) })
	}
	s.RunUntil(start.Add(500 * time.Millisecond))
	floodPhaseGood := received[shim.TypeData]

	// Deploy pushback.
	ctrl := &Controller{
		Detector: det,
		Upstream: []*netem.Node{up},
		LimitBps: 10_000,
		Lifetime: time.Hour,
	}
	if !ctrl.MaybePush(s.Now()) {
		t.Fatal("pushback did not identify the flood")
	}
	if len(ctrl.Limiters()) != 1 {
		t.Fatal("limiter not installed")
	}

	// Phase 2 (500ms-1s): same offered load with the limiter in place.
	received[shim.TypeData] = 0
	for i := 500; i < 1000; i++ {
		s.Schedule(s.Now().Add(time.Duration(i-500)*time.Millisecond).Sub(s.Now()), func() {
			for j := 0; j < 10; j++ {
				_ = atk.Send(floodPkt)
			}
		})
	}
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i*10)*time.Millisecond, func() { _ = good.Send(goodPkt) })
	}
	s.RunUntil(start.Add(time.Second))
	cleanPhaseGood := received[shim.TypeData]

	if cleanPhaseGood <= floodPhaseGood {
		t.Errorf("goodput did not improve: flood=%d/50 pushback=%d/50",
			floodPhaseGood, cleanPhaseGood)
	}
	if cleanPhaseGood < 45 {
		t.Errorf("goodput after pushback = %d/50, want near-complete", cleanPhaseGood)
	}
	if ctrl.Limiters()[0].Dropped == 0 {
		t.Error("limiter dropped nothing")
	}
}

// TestWatchQueueReportsExactlyTheRefused pins the observing queue: the
// detector sees exactly the packets the inner FIFO refused — as many as
// the link counts dropped, identified here by per-packet source
// addresses — and every accepted packet is delivered in order with its
// bytes untouched.
func TestWatchQueueReportsExactlyTheRefused(t *testing.T) {
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	s := netem.NewSimulator(start, 1)
	a := s.MustAddNode("a", "", netip.MustParseAddr("172.31.0.1"))
	b := s.MustAddNode("b", "", victim)
	link := s.Connect(a, b, netem.LinkConfig{Delay: time.Millisecond, RateBps: 800_000})
	s.BuildRoutes()
	det := NewDetector()
	if err := link.SetQueue(a, det.WatchQueue(netem.NewFIFOQueue(4))); err != nil {
		t.Fatal(err)
	}
	var delivered [][]byte
	b.SetHandler(func(_ time.Time, pkt []byte) { delivered = append(delivered, bytes.Clone(pkt)) })

	// Two bursts of 20: the first overflows an empty queue, the second a
	// partly drained one. Packet i carries source 192.0.2.i.
	var sent [][]byte
	for i := 0; i < 40; i++ {
		sent = append(sent, setupPkt(t, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), victim))
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
