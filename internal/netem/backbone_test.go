package netem

import (
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

// TestBackboneMillionHosts is the continental-scale acceptance gate:
// a 1M-host backbone must build in ≤ 10s and route end to end.
func TestBackboneMillionHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race detector inflates build-time constants")
	}
	start := time.Now()
	s, bb := buildTestBackbone(t, BackboneSpec{Metros: 16, HostsPerMetro: 62500})
	built := time.Since(start)
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
	t.Logf("built 1M hosts in %v", built)
}
