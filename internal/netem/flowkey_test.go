package netem

import (
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/wire"
)

func TestFlowKeyCanonicalizesDirections(t *testing.T) {
	a := netip.MustParseAddr("172.16.1.10")
	b := netip.MustParseAddr("10.10.0.5")
	mk := func(src, dst netip.Addr) []byte { return mkUDP(t, src, dst, nil) }

	kf, fwdF, ok := FlowKeyOf(mk(a, b))
	if !ok {
		t.Fatal("forward packet rejected")
	}
	kr, fwdR, ok := FlowKeyOf(mk(b, a))
	if !ok {
		t.Fatal("reverse packet rejected")
	}
	if kf != kr {
		t.Errorf("directions map to different keys: %v vs %v", kf, kr)
	}
	if fwdF == fwdR {
		t.Errorf("both directions report forward=%v", fwdF)
	}
	want, err := FlowKeyFrom(a, b, wire.ProtoUDP)
	if err != nil {
		t.Fatal(err)
	}
	if kf != want {
		t.Errorf("FlowKeyOf = %v, FlowKeyFrom = %v", kf, want)
	}
	if kf.Lo != b.As4() || kf.Hi != a.As4() {
		t.Errorf("canonical order wrong: %v", kf)
	}

	if _, _, ok := FlowKeyOf([]byte{1, 2, 3}); ok {
		t.Error("short packet accepted")
	}
}

func TestNowNanosTracksClock(t *testing.T) {
	sim := NewSimulator(time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC), 1)
	n0 := sim.NowNanos()
	sim.RunFor(1500000) // 1.5ms
	if got := sim.NowNanos() - n0; got != 1500000 {
		t.Errorf("NowNanos advanced %d, want 1500000", got)
	}
}
