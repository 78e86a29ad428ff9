package dpi

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

// stealthPkt builds a plain UDP packet between the given addresses.
func stealthPkt(t *testing.T, src, dst netip.Addr, size int) []byte {
	t.Helper()
	pkt, err := wire.AppendUDP(nil, src, dst, 9000, 9001, make([]byte, size))
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// stealthEngine builds an engine whose ClassUnknown policy is pol: with
// no classifier configured every flow stays Unknown, so the policy
// applies to every packet and the stealth gates can be probed directly.
func stealthEngine(pol ClassPolicy) *Engine {
	var p Policy
	p[ClassUnknown] = pol
	return NewEngine(EngineConfig{Policy: p, Rng: rand.New(rand.NewSource(9))})
}

func TestStealthDutyCycleGatesInTime(t *testing.T) {
	eng := stealthEngine(ClassPolicy{DropProb: 1, DutyPeriod: 10 * time.Millisecond})
	hook := eng.Hook()
	pkt := stealthPkt(t, netip.MustParseAddr("172.16.0.2"), netip.MustParseAddr("10.9.0.1"), 160)
	base := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	// The 2006 epoch is not duty-phase-aligned; anchor to the period.
	base = base.Add(-time.Duration(base.UnixNano() % int64(10*time.Millisecond)))
	var droppedOn, droppedOff int
	for i := 0; i < 100; i++ {
		now := base.Add(time.Duration(i) * time.Millisecond)
		v := hook(now, nil, pkt)
		inOn := (i % 10) < 5
		if v.Drop && !inOn {
			droppedOff++
		}
		if v.Drop && inOn {
			droppedOn++
		}
	}
	if droppedOff != 0 {
		t.Errorf("%d drops during OFF phase, want 0", droppedOff)
	}
	if droppedOn != 50 {
		t.Errorf("%d drops during ON phase, want all 50", droppedOn)
	}
}

func TestStealthMinFlowPktsExemptsYoungFlows(t *testing.T) {
	eng := stealthEngine(ClassPolicy{DropProb: 1, MinFlowPkts: 10})
	hook := eng.Hook()
	pkt := stealthPkt(t, netip.MustParseAddr("172.16.0.2"), netip.MustParseAddr("10.9.0.1"), 160)
	now := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := 1; i <= 30; i++ {
		now = now.Add(20 * time.Millisecond)
		v := hook(now, nil, pkt)
		if i <= 10 && v.Drop {
			t.Fatalf("packet %d of a young flow dropped; probe evasion must exempt the first 10", i)
		}
		if i > 10 && !v.Drop {
			t.Fatalf("packet %d not dropped; enforcement must start once the flow ages past 10", i)
		}
	}
}

// TestStealthMinFlowPktsClampedToWindow: a threshold above the decayed
// window's ceiling would otherwise exempt every flow forever — the
// engine must clamp it so long flows always age into enforcement.
func TestStealthMinFlowPktsClampedToWindow(t *testing.T) {
	var p Policy
	p[ClassUnknown] = ClassPolicy{DropProb: 1, MinFlowPkts: 1 << 30}
	eng := NewEngine(EngineConfig{Policy: p, Rng: rand.New(rand.NewSource(9))})
	hook := eng.Hook()
	pkt := stealthPkt(t, netip.MustParseAddr("172.16.0.2"), netip.MustParseAddr("10.9.0.1"), 160)
	now := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	dropped := false
	const pkts = 4 * windowPkts
	for i := 0; i < pkts && !dropped; i++ {
		now = now.Add(time.Millisecond)
		dropped = hook(now, nil, pkt).Drop
	}
	if !dropped {
		t.Errorf("flow of %d packets never enforced: MinFlowPkts must clamp to the decayed window", pkts)
	}
}

func TestStealthTargetFractionIsStableAndProportional(t *testing.T) {
	eng := stealthEngine(ClassPolicy{DropProb: 1, TargetFraction: 0.5})
	hook := eng.Hook()
	now := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	const flows = 400
	targeted := 0
	for f := 0; f < flows; f++ {
		src := netip.AddrFrom4([4]byte{172, 16, byte(f >> 8), byte(f + 2)})
		pkt := stealthPkt(t, src, netip.MustParseAddr("10.9.0.1"), 160)
		var first bool
		for i := 0; i < 5; i++ {
			now = now.Add(time.Millisecond)
			v := hook(now, nil, pkt)
			if i == 0 {
				first = v.Drop
			} else if v.Drop != first {
				t.Fatalf("flow %d changed fate mid-life (pkt %d): targeting must be stable per flow", f, i)
			}
		}
		if first {
			targeted++
		}
	}
	frac := float64(targeted) / flows
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("targeted fraction = %.2f over %d flows, want ~0.5", frac, flows)
	}
	// Different stealth seeds must select different subsets.
	var p Policy
	p[ClassUnknown] = ClassPolicy{DropProb: 1, TargetFraction: 0.5}
	eng2 := NewEngine(EngineConfig{Policy: p, Rng: rand.New(rand.NewSource(9)), StealthSeed: 12345})
	hook2 := eng2.Hook()
	differs := false
	for f := 0; f < 64 && !differs; f++ {
		src := netip.AddrFrom4([4]byte{172, 16, byte(f >> 8), byte(f + 2)})
		pkt := stealthPkt(t, src, netip.MustParseAddr("10.9.0.1"), 160)
		now = now.Add(time.Millisecond)
		v1 := hook(now, nil, pkt)
		v2 := hook2(now, nil, pkt)
		if v1.Drop != v2.Drop {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 0 (default) and 12345 selected identical flow subsets over 64 flows")
	}
}

// TestStealthObserveNMatchesObserve pins the new two-value observation
// path to the original.
func TestStealthObserveNMatchesObserve(t *testing.T) {
	tab := NewFlowTable(nil)
	key, err := netem.FlowKeyFrom(netip.MustParseAddr("172.16.0.2"), netip.MustParseAddr("10.9.0.1"), wire.ProtoUDP)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1e15)
	for i := 1; i <= 20; i++ {
		class, pkts := tab.ObserveN(key, true, 160, now)
		if class != ClassUnknown {
			t.Fatalf("no classifier configured but class = %v", class)
		}
		if pkts != uint64(i) {
			t.Fatalf("ObserveN pkts = %d after %d packets", pkts, i)
		}
		now += int64(20 * time.Millisecond)
	}
	if got := tab.Observe(key, true, 160, now); got != ClassUnknown {
		t.Fatalf("Observe class = %v", got)
	}
}

func TestFlowFracUniform(t *testing.T) {
	const n = 4096
	var buckets [8]int
	for i := 0; i < n; i++ {
		k := netem.FlowKey{Lo: [4]byte{10, 0, byte(i >> 8), byte(i)}, Hi: [4]byte{172, 16, 0, 1}, Proto: 17}
		f := flowFrac(7, k)
		if f < 0 || f >= 1 {
			t.Fatalf("flowFrac out of [0,1): %v", f)
		}
		buckets[int(f*8)]++
	}
	for b, c := range buckets {
		if c < n/8/2 || c > n/8*2 {
			t.Errorf("bucket %d holds %d of %d keys; hash badly skewed", b, c, n)
		}
	}
}

// TestFlowHashesKeepTheirFormulas pins the two hashes that share
// FlowKey.Fold to the inline FNV-1a loops they were written as:
// FlowKeyHash is the flight recorder's flow id, and flowFrac decides
// which flows a TargetFraction policy throttles.
func TestFlowHashesKeepTheirFormulas(t *testing.T) {
	fnv := func(h uint64, k netem.FlowKey) uint64 {
		for _, b := range append(append(k.Lo[:], k.Hi[:]...), k.Proto) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		return h
	}
	mix := func(z uint64) uint64 {
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	const offset = 14695981039346656037
	for _, k := range []netem.FlowKey{
		{},
		{Lo: [4]byte{10, 0, 0, 1}, Hi: [4]byte{172, 16, 0, 1}, Proto: 17},
		{Lo: [4]byte{10, 9, 0, 1}, Hi: [4]byte{255, 255, 255, 255}, Proto: 253},
	} {
		if got, want := netem.FlowKeyHash(k), mix(fnv(offset, k)+0x9E3779B97F4A7C15); got != want {
			t.Errorf("FlowKeyHash(%v) = %#x, want %#x", k, got, want)
		}
		for _, seed := range []uint64{0, 7, 0x5eed, ^uint64(0)} {
			if got, want := flowFrac(seed, k), float64(mix(fnv(offset^seed, k))>>11)/float64(1<<53); got != want {
				t.Errorf("flowFrac(%#x, %v) = %v, want %v", seed, k, got, want)
			}
		}
	}
}
