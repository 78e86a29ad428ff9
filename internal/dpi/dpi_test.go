package dpi

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

func key(i int) netem.FlowKey {
	return netem.FlowKey{
		Lo:    [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)},
		Hi:    [4]byte{172, 16, 0, 1},
		Proto: wire.ProtoUDP,
	}
}

// synthFlow feeds a jittered application-shaped packet sequence into a
// fresh Features value: the in-package stand-in for the trafficgen
// sources E7 drives through the real emulator.
func synthFlow(class Class, rng *rand.Rand, pkts int) *Features {
	f := &Features{}
	now := int64(1e15)
	emit := func(size int, gap time.Duration) {
		f.Update(size, true, now)
		now += int64(gap)
	}
	switch class {
	case ClassVoIP:
		for i := 0; i < pkts; i++ {
			emit(212, 20*time.Millisecond+time.Duration(rng.Intn(4)-2)*time.Millisecond)
		}
	case ClassVideo:
		for i := 0; i < pkts; {
			burst := 12 + rng.Intn(16)
			for j := 0; j < burst && i < pkts; j++ {
				emit(1252, 300*time.Microsecond+time.Duration(rng.Intn(200))*time.Microsecond)
				i++
			}
			now += int64(150*time.Millisecond) + rng.Int63n(int64(250*time.Millisecond))
		}
	case ClassBulk:
		for i := 0; i < pkts; i++ {
			emit(1302+rng.Intn(80), 3*time.Millisecond+time.Duration(rng.Intn(600)-300)*time.Microsecond)
		}
	case ClassWeb:
		for i := 0; i < pkts; {
			k := 2 + rng.Intn(8)
			emit(352, 500*time.Microsecond)
			i++
			for j := 0; j < k && i < pkts; j++ {
				emit(352+rng.Intn(1000), 500*time.Microsecond+time.Duration(rng.Intn(500))*time.Microsecond)
				i++
			}
			now += rng.Int63n(int64(800 * time.Millisecond))
		}
	}
	return f
}

func trainSynthetic(t testing.TB, rng *rand.Rand, flowsPerClass int) *Classifier {
	var samples []Sample
	for _, c := range []Class{ClassVoIP, ClassVideo, ClassBulk, ClassWeb} {
		for i := 0; i < flowsPerClass; i++ {
			s := Sample{Class: c}
			synthFlow(c, rng, 64+rng.Intn(128)).Vector(&s.Vec)
			samples = append(samples, s)
		}
	}
	cls, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func TestClassifierSeparatesAppShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cls := trainSynthetic(t, rng, 12)
	if len(cls.Profiles) != NumClasses {
		t.Fatalf("trained %d profiles, want %d", len(cls.Profiles), NumClasses)
	}
	// Held-out flows from a different RNG stream must classify >= 90%.
	eval := rand.New(rand.NewSource(99))
	total, correct := 0, 0
	for _, c := range []Class{ClassVoIP, ClassVideo, ClassBulk, ClassWeb} {
		for i := 0; i < 25; i++ {
			got, _ := cls.Classify(synthFlow(c, eval, 64+eval.Intn(128)))
			total++
			if got == c {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("held-out accuracy %.2f (%d/%d), want >= 0.90", acc, correct, total)
	}
}

func TestTrainRejectsBadLabels(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("Train(nil) succeeded")
	}
	if _, err := Train([]Sample{{Class: ClassUnknown}}); err == nil {
		t.Error("Train with unknown label succeeded")
	}
}

func TestFlowTableBoundedEviction(t *testing.T) {
	tab := NewFlowTable(nil)
	now := int64(1e15)
	const flows = 2 * maxFlows
	for i := 0; i < flows; i++ {
		// Each flow shows a few packets; later flows arrive later so the
		// clock sweep always finds idle victims.
		for p := 0; p < 3; p++ {
			tab.Observe(key(i), true, 200, now)
			now += int64(10 * time.Millisecond)
		}
	}
	if got := len(tab.slab); got != maxFlows {
		t.Errorf("table holds %d flows, want capped at %d", got, maxFlows)
	}
	// The index map must shrink-track the slab: every live key resolves.
	seen := 0
	tab.Each(func(e *FlowEntry) {
		if _, ok := tab.classOfNoLock(e.Key); !ok {
			t.Fatalf("live flow %v missing from index", e.Key)
		}
		seen++
	})
	if seen != maxFlows {
		t.Errorf("Each visited %d flows, want %d", seen, maxFlows)
	}
}

// classOfNoLock is ClassOf without re-locking, callable from inside Each.
func (t *FlowTable) classOfNoLock(k netem.FlowKey) (Class, bool) {
	i, ok := t.idx[k]
	if !ok {
		return ClassUnknown, false
	}
	return t.slab[i].Class, true
}

func TestFlowTableConcurrent(t *testing.T) {
	tab := NewFlowTable(nil)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := int64(1e15)
			for i := 0; i < 20000; i++ {
				// Overlapping key ranges force shared entries and evictions.
				tab.Observe(key((w*400+i)%(maxFlows*3)), i%2 == 0, 100+i%1400, now)
				now += int64(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if got := len(tab.slab); got > maxFlows || got != len(tab.idx) {
		t.Errorf("table holds %d flows under %d keys, want one key each and at most maxFlows", got, len(tab.idx))
	}
}

func TestObserveExistingFlowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under -race")
	}
	rng := rand.New(rand.NewSource(3))
	tab := NewFlowTable(trainSynthetic(t, rng, 8))
	k := key(1)
	now := int64(1e15)
	tab.Observe(k, true, 212, now)
	allocs := testing.AllocsPerRun(2000, func() {
		now += int64(20 * time.Millisecond)
		tab.Observe(k, true, 212, now)
	})
	if allocs != 0 {
		t.Fatalf("per-packet feature update allocates %.1f/op, want 0", allocs)
	}
}

func TestTokenBucketPolices(t *testing.T) {
	var b tokenBucket
	const rate = 8000.0 // 1000 bytes/sec
	now := int64(1e15)
	// Fresh bucket starts full at burst depth.
	if !b.allow(burstBits, rate, now) {
		t.Fatal("full bucket refused a burst-size packet")
	}
	if b.allow(1, rate, now) {
		t.Fatal("empty bucket allowed a packet")
	}
	// After half a second, 4000 bits refilled.
	now += int64(500 * time.Millisecond)
	if !b.allow(3000, rate, now) {
		t.Fatal("refilled bucket refused")
	}
	if b.allow(3000, rate, now) {
		t.Fatal("drained bucket allowed")
	}
}

// TestEngineEnforcesClassPolicy runs the engine as a real transit hook:
// a VoIP-shaped stream crosses a router whose policy drops classified
// VoIP, and a parallel bulk-shaped stream must survive untouched.
func TestEngineEnforcesClassPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cls := trainSynthetic(t, rng, 10)

	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	sim := netem.NewSimulator(start, 5)
	src := sim.MustAddNode("src", "", netip.MustParseAddr("172.16.0.2"))
	r := sim.MustAddNode("r", "")
	voipDst := sim.MustAddNode("d1", "", netip.MustParseAddr("10.9.0.1"))
	bulkDst := sim.MustAddNode("d2", "", netip.MustParseAddr("10.9.0.2"))
	sim.Connect(src, r, netem.LinkConfig{Delay: time.Millisecond})
	sim.Connect(r, voipDst, netem.LinkConfig{Delay: time.Millisecond})
	sim.Connect(r, bulkDst, netem.LinkConfig{Delay: time.Millisecond})
	sim.BuildRoutes()

	var pol Policy
	pol[ClassVoIP] = ClassPolicy{DropProb: 1}
	eng := NewEngine(EngineConfig{
		Classifier: cls,
		Policy:     pol,
		Rng:        rand.New(rand.NewSource(6)),
	})
	r.AddTransitHook(eng.Hook())

	var gotVoIP, gotBulk int
	voipDst.SetHandler(func(time.Time, []byte) { gotVoIP++ })
	bulkDst.SetHandler(func(time.Time, []byte) { gotBulk++ })

	mkPkt := func(dst netip.Addr, size int) []byte { return stealthPkt(t, src.Addr(), dst, size) }
	const frames = 200
	voipPkt := mkPkt(voipDst.Addr(), 160)
	bulkPkt := mkPkt(bulkDst.Addr(), 1310)
	for i := 0; i < frames; i++ {
		sim.Schedule(time.Duration(i)*20*time.Millisecond, func() { _ = src.Send(voipPkt) })
		sim.Schedule(time.Duration(i)*3*time.Millisecond, func() { _ = src.Send(bulkPkt) })
	}
	sim.Run()

	if gotBulk != frames {
		t.Errorf("bulk stream lost packets: %d/%d (policy must not touch other classes)", gotBulk, frames)
	}
	if gotVoIP > frames/2 {
		t.Errorf("voip stream delivered %d/%d, want classified and dropped", gotVoIP, frames)
	}
	if d := eng.Drops(ClassVoIP); d == 0 {
		t.Error("engine recorded no VoIP drops")
	}
	k, err := netem.FlowKeyFrom(src.Addr(), voipDst.Addr(), wire.ProtoUDP)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := eng.Table().ClassOf(k); !ok || c != ClassVoIP {
		t.Errorf("voip flow classified as %v (tracked=%v), want voip", c, ok)
	}
}

func TestFeatureDecayBoundsCounters(t *testing.T) {
	f := &Features{}
	now := int64(1e15)
	for i := 0; i < 10*windowPkts; i++ {
		f.Update(212, true, now)
		now += int64(20 * time.Millisecond)
	}
	if f.Pkts >= 2*windowPkts {
		t.Errorf("windowed Pkts = %d, want decayed below 2*%d", f.Pkts, windowPkts)
	}
	var v [FeatureDim]float64
	f.Vector(&v)
	if v[1] < 0.9 { // 212B lands in bucket 1 ([128,256))
		t.Errorf("size histogram fraction = %.2f after decay, want ~1", v[1])
	}
}
