package trafficgen

import (
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

var start = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

func TestOpenLoopRate(t *testing.T) {
	sim := netem.NewSimulator(start, 1)
	var times []time.Duration
	n := OpenLoop{RatePps: 1000}.Run(sim, 10*time.Millisecond, func(seq uint64) {
		times = append(times, sim.Now().Sub(start))
	})
	sim.Run()
	if n != 10 || len(times) != 10 {
		t.Fatalf("scheduled %d, fired %d", n, len(times))
	}
	for i, at := range times {
		if want := time.Duration(i) * time.Millisecond; at != want {
			t.Errorf("emission %d at %v, want %v", i, at, want)
		}
	}
}

func TestOpenLoopCountCap(t *testing.T) {
	sim := netem.NewSimulator(start, 1)
	fired := 0
	if n := (OpenLoop{RatePps: 1e6, Count: 7}).Run(sim, time.Hour, func(uint64) { fired++ }); n != 7 {
		t.Fatalf("n = %d", n)
	}
	sim.Run()
	if fired != 7 {
		t.Errorf("fired = %d", fired)
	}
	if n := (OpenLoop{}).Run(sim, time.Second, func(uint64) {}); n != 0 {
		t.Errorf("zero rate scheduled %d", n)
	}
}

func TestCyclingSenderPooledDelivery(t *testing.T) {
	sim := netem.NewSimulator(start, 1)
	f, err := netem.BuildFanout(sim, netem.FanoutSpec{Hosts: 8})
	if err != nil {
		t.Fatal(err)
	}
	delivered := f.CountDeliveries()
	templates := make([][]byte, 8)
	for i := range templates {
		templates[i] = mkTestUDP(t, f.OutsideAddr(0), f.HostAddr(i))
	}
	send := CyclingSender(f.Outside[0], templates)
	const total = 64
	OpenLoop{RatePps: 1000, Count: total}.Run(sim, 0, send)
	sim.Run()
	if delivered.Total() != total {
		t.Fatalf("delivered %d/%d", delivered.Total(), total)
	}
	// Pooled buffers: 64 sends must reuse a handful of buffers, not
	// allocate one each.
	if allocated, gets := sim.PoolStats(); gets < total || allocated > 16 {
		t.Errorf("pool stats: allocated=%d gets=%d", allocated, gets)
	}
}

func mkTestUDP(t *testing.T, src, dst netip.Addr) []byte {
	t.Helper()
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, 64)
	buf.PushPayload(make([]byte, 64))
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: 1, DstPort: 2},
	); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
