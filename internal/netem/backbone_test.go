package netem

import (
	"runtime"
	"testing"
	"time"
)

func buildTestBackbone(t *testing.T, spec BackboneSpec) (*Simulator, *Backbone) {
	t.Helper()
	s := NewSimulator(simStart, 1)
	bb, err := BuildBackbone(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, bb
}

func TestBuildBackboneRouting(t *testing.T) {
	s, bb := buildTestBackbone(t, BackboneSpec{Metros: 4, HostsPerMetro: 300})

	// Host in metro 0 reaches a host in metro 3 across the core.
	src, dst := bb.Metros[0].Hosts[5], bb.Metros[3].Hosts[299]
	gotCross := false
	dst.SetHandler(func(time.Time, []byte) { gotCross = true })
	if err := src.Send(mkUDP(t, bb.HostAddr(0, 5), bb.HostAddr(3, 299), nil)); err != nil {
		t.Fatal(err)
	}
	// Outside user of metro 2 reaches its metro's anycast neutralizer.
	atBorder := false
	bb.Metros[2].Border.SetHandler(func(time.Time, []byte) { atBorder = true })
	m2 := bb.Metros[2]
	if err := m2.Outside[0].Send(mkUDP(t, m2.OutsideAddr(0), m2.Spec.Anycast, nil)); err != nil {
		t.Fatal(err)
	}
	// Outside user of metro 1 reaches a customer host of metro 0.
	delivered := bb.Metros[0].CountDeliveries()
	m1 := bb.Metros[1]
	if err := m1.Outside[0].Send(mkUDP(t, m1.OutsideAddr(0), bb.HostAddr(0, 0), nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !gotCross || !atBorder || delivered.Total() != 1 {
		t.Fatalf("cross-metro=%v anycast=%v outside->host=%d", gotCross, atBorder, delivered.Total())
	}

	// Core routing state is O(metros): 3 routes per metro, none per host.
	if n := routeCount(bb.Core); n != 3*len(bb.Metros) {
		t.Errorf("core has %d routes, want %d", n, 3*len(bb.Metros))
	}
	// Address blocks are disjoint and metro-local addressing stayed intact.
	for m := range bb.Metros {
		for m2 := range bb.Metros {
			if m != m2 && bb.Metros[m].CustomerNet.Overlaps(bb.Metros[m2].CustomerNet) {
				t.Fatalf("metros %d and %d overlap: %v vs %v", m, m2,
					bb.Metros[m].CustomerNet, bb.Metros[m2].CustomerNet)
			}
		}
	}
}

func TestBuildBackboneRejectsBadSpecs(t *testing.T) {
	for name, spec := range map[string]BackboneSpec{
		"zero metros":     {Metros: 0, HostsPerMetro: 10},
		"zero hosts":      {Metros: 2, HostsPerMetro: 0},
		"customer space":  {Metros: 4096, HostsPerMetro: 1 << 21},
		"too many metros": {Metros: 5000, HostsPerMetro: 10},
	} {
		s := NewSimulator(simStart, 1)
		if _, err := BuildBackbone(s, spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBackboneFluidDeterministic: the fluid layer's byte accounting and
// capacity consumption must replay bit-identically across worker counts
// (its jitter draws from shard PRNGs, its ticks are shard events).
func TestBackboneFluidDeterministic(t *testing.T) {
	run := func(workers int) (fluidBytes, fluidTicks, delivered uint64) {
		s, bb := buildTestBackbone(t, BackboneSpec{
			Metros: 3, HostsPerMetro: 64,
			EdgeLink:        LinkConfig{Delay: time.Millisecond, RateBps: 10e6},
			FluidBpsPerEdge: 8e6, FluidInterval: 10 * time.Millisecond,
		})
		s.SetWorkers(workers)
		if err := bb.StartFluid(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		d := bb.Metros[1].CountDeliveries()
		src := bb.Metros[0].Hosts[0]
		pkt := mkUDP(t, bb.HostAddr(0, 0), bb.HostAddr(1, 7), nil)
		for i := 0; i < 50; i++ {
			src.Schedule(time.Duration(i)*5*time.Millisecond, func() {
				src.Send(pkt)
			})
		}
		s.Run()
		fluidBytes, fluidTicks = s.FluidTotals()
		return fluidBytes, fluidTicks, d.Total()
	}
	b1, t1, d1 := run(1)
	b4, t4, d4 := run(4)
	if b1 == 0 || t1 == 0 {
		t.Fatalf("fluid accounted nothing: bytes=%d ticks=%d", b1, t1)
	}
	if d1 != 50 {
		t.Fatalf("delivered %d/50 probes", d1)
	}
	if b1 != b4 || t1 != t4 || d1 != d4 {
		t.Fatalf("worker divergence: bytes %d vs %d, ticks %d vs %d, delivered %d vs %d",
			b1, b4, t1, t4, d1, d4)
	}
}

// TestBackboneFluidConsumesCapacity: a probe sharing a rate-limited link
// with fluid load must serialize slower than without it.
func TestBackboneFluidConsumesCapacity(t *testing.T) {
	probe := func(fluidBps float64) time.Duration {
		s, bb := buildTestBackbone(t, BackboneSpec{
			Metros: 1, HostsPerMetro: 8,
			EdgeLink:        LinkConfig{Delay: time.Millisecond, RateBps: 1e6},
			FluidBpsPerEdge: fluidBps, FluidInterval: 50 * time.Millisecond,
		})
		if err := bb.StartFluid(time.Second); err != nil {
			t.Fatal(err)
		}
		f := bb.Metros[0]
		var at time.Time
		f.Hosts[3].SetHandler(func(now time.Time, _ []byte) { at = now })
		// Send mid-run so the fluid rate is already applied.
		f.Outside[0].Schedule(100*time.Millisecond, func() {
			f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(3), make([]byte, 1000)))
		})
		s.Run()
		if at.IsZero() {
			t.Fatal("probe undelivered")
		}
		return at.Sub(simStart)
	}
	idle := probe(0)
	loaded := probe(900e3) // 90% of the 1 Mbps edge link
	if loaded <= idle {
		t.Fatalf("fluid load did not slow the shared link: idle %v, loaded %v", idle, loaded)
	}
}

// TestFluidTickZeroAlloc: a fluid flow reschedules itself every
// interval, so a tick must not allocate — the flow binds its tick
// closure once, at attach time.
func TestFluidTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond, RateBps: 10e6})
	for _, from := range []*Node{a, b} {
		fl, err := s.AttachFluid(l, from, FluidConfig{RateBps: 4e6, JitterFrac: 0.2, Interval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		fl.Start(time.Hour)
	}
	s.RunFor(10 * time.Millisecond) // warm the event lanes
	const runs = 100
	_, before := s.FluidTotals()
	if allocs := testing.AllocsPerRun(runs, func() { s.RunFor(10 * time.Millisecond) }); allocs != 0 {
		t.Errorf("10 ms of two ticking fluid flows allocates %.1f times, want 0", allocs)
	}
	if _, after := s.FluidTotals(); after-before < 2*10*runs {
		t.Errorf("ran %d fluid ticks, want at least %d", after-before, 2*10*runs)
	}
}

// TestBackboneMillionHosts is the continental-scale acceptance gate:
// a 1M-host backbone must build in ≤ 10s and route end to end.
func TestBackboneMillionHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race detector inflates build-time constants")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s, bb := buildTestBackbone(t, BackboneSpec{Metros: 16, HostsPerMetro: 62500})
	built := time.Since(start)
	runtime.ReadMemStats(&m1)
	if built > 10*time.Second {
		t.Errorf("1M-host build took %v, want <= 10s", built)
	}
	if n := len(s.nodeList); n < 1_000_000 {
		t.Fatalf("only %d nodes", n)
	}
	gotCross := false
	bb.Metros[15].Hosts[62499].SetHandler(func(time.Time, []byte) { gotCross = true })
	if err := bb.Metros[0].Hosts[0].Send(mkUDP(t, bb.HostAddr(0, 0), bb.HostAddr(15, 62499), nil)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !gotCross {
		t.Fatal("corner-to-corner packet undelivered")
	}
	t.Logf("built 1M hosts in %v; %d collections ran during the build", built, m1.NumGC-m0.NumGC)
}

// TestBackboneKeepsWhatItAllocates: BuildBackbone sizes every host's
// storage and the node list before it writes the first host, so at most
// 2 % of the bytes it allocates are garbage when it returns. A build that
// grows its storage one metro at a time leaves about 13 %, most of it the
// node list's regrowth, and a regrowth after a metro's hosts were written
// also leaves that metro's Hosts viewing a stale copy of the list.
func TestBackboneKeepsWhatItAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	const metros, hosts = 16, 5000
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s, bb := buildTestBackbone(t, BackboneSpec{Metros: metros, HostsPerMetro: hosts})
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	allocated := m1.TotalAlloc - m0.TotalAlloc
	kept := int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	garbage := 1 - float64(kept)/float64(allocated)
	t.Logf("%d × %d hosts: allocated %d B, kept %d B, garbage %.2f%%, %d collections",
		metros, hosts, allocated, kept, 100*garbage, m1.NumGC-m0.NumGC)
	if garbage > 0.02 {
		t.Errorf("the build left %.2f%% of the %d B it allocated as garbage, want <= 2%%", 100*garbage, allocated)
	}
	// Sized to the world: the allocator rounds a large array up to whole
	// 8 KiB pages, 1 024 pointers.
	if cap(s.nodeList)-len(s.nodeList) >= 1024 {
		t.Errorf("node list holds %d nodes in %d slots", len(s.nodeList), cap(s.nodeList))
	}
	for m, f := range bb.Metros {
		first := f.Hosts[0]
		if &f.Hosts[0] != &s.nodeList[first.id] || first.ShardID() != 1+m || f.Hosts[hosts-1].ShardID() != 1+m {
			t.Errorf("metro %d: hosts view the node list %v, on shards %d..%d, want true on %d",
				m, &f.Hosts[0] == &s.nodeList[first.id], first.ShardID(), f.Hosts[hosts-1].ShardID(), 1+m)
		}
	}
}
