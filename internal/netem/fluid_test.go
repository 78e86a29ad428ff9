package netem

import (
	"math"
	"strings"
	"testing"
	"time"
)

// serializeOracle is the serialization delay of a size-byte packet on a
// line of rate bits/s carrying load bits/s of fluid background, computed
// the way startTransmission did before a FluidFlow folded its load into
// the line rate: per packet, from both.
func serializeOracle(line, load float64, size int) time.Duration {
	rate := line
	if rate <= 0 {
		return 0
	}
	if load > 0 {
		if rate -= load; rate < line*fluidResidualFloor {
			rate = line * fluidResidualFloor
		}
	}
	return time.Duration(math.Round(float64(size*8) / rate * float64(time.Second)))
}

// TestFluidResidualMatchesOracle: a fluid flow writes the residual rate
// into its direction at Start, at each tick and at the horizon, and a
// packet serializes at that rate. The delays must equal the oracle's to
// the nanosecond before Start, at half the rate, around the 1 % floor,
// above the rate and after the horizon; on an unpaced line they stay 0.
func TestFluidResidualMatchesOracle(t *testing.T) {
	const size = 1001 // odd, so the rounding to whole nanoseconds matters
	for _, line := range []float64{0, 1e6, 7.3e6} {
		for _, frac := range []float64{0.5, 0.99, 0.995, 1, 2} {
			load := line * frac
			if line == 0 {
				load = 1e6
			}
			s := NewSimulator(simStart, 1)
			a := s.MustAddNode("a", "", addr("10.0.0.1"))
			b := s.MustAddNode("b", "", addr("10.0.0.2"))
			l := s.Connect(a, b, LinkConfig{RateBps: line})
			a.AddRoute(defaultRoute, l)
			fl, err := s.AttachFluid(l, a, FluidConfig{RateBps: load, Interval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			var arrived time.Time
			b.SetHandler(func(now time.Time, _ []byte) { arrived = now })
			// probe sends at sim offset at and wants the delay the oracle
			// gives for the load offered then.
			probe := func(at time.Duration, offered float64, when string) {
				t.Helper()
				s.RunFor(at - s.Now().Sub(simStart))
				if err := a.Send(mkUDP(t, a.Addr(), b.Addr(), make([]byte, size-28))); err != nil {
					t.Fatal(err)
				}
				s.RunFor(time.Second) // the slowest here, 1001 B at 1 % of 1 Mbps, takes 0.8 s
				got, want := arrived.Sub(simStart)-at, serializeOracle(line, offered, size)
				if got != want {
					t.Errorf("line %g, load %g, %s: serialized in %v, oracle %v", line, load, when, got, want)
				}
				if line == 0 && l.dir(a).rateBps != 0 {
					t.Errorf("load %g on an unpaced line, %s: rate %g, want it unpaced", load, when, l.dir(a).rateBps)
				}
			}
			probe(time.Millisecond, 0, "before Start")
			fl.Start(5 * time.Second) // ticks every 10 ms from 1.001 s to the horizon at 6.001 s
			probe(2*time.Second, load, "under load")
			probe(4*time.Second+5*time.Millisecond, load, "still under load")
			probe(7*time.Second, 0, "after the horizon")
		}
	}
}

// TestAttachFluidOnePerDirection: a direction carries at most one fluid
// flow. Two flows on it would each account their own load while the line
// carried only the last writer's, so a second attach is refused whether
// the first flow has started, not yet started, or passed its horizon.
func TestAttachFluidOnePerDirection(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	l := s.Connect(a, b, LinkConfig{RateBps: 10e6})
	cfg := FluidConfig{RateBps: 4e6, Interval: 100 * time.Millisecond}
	fl, err := s.AttachFluid(l, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(when string) {
		t.Helper()
		if _, err := s.AttachFluid(l, a, cfg); err == nil || !strings.Contains(err.Error(), "already carries") {
			t.Errorf("second flow on a->b %s: err %v, want it refused", when, err)
		}
	}
	refused("before Start")
	fl.Start(time.Second)
	refused("while started")
	s.Run()
	refused("after the horizon")
	if _, err := s.AttachFluid(l, b, cfg); err != nil {
		t.Errorf("the other direction refused its first flow: %v", err)
	}
	if bytes, _ := s.FluidTotals(); bytes != 4e6/8 {
		t.Errorf("fluid bytes %d after 1 s at 4 Mbps, want %d", bytes, int(4e6/8))
	}
}

// TestFluidRestartMovesHorizon: a Start while the flow still offers load
// moves its horizon to now + d and starts no second tick chain, so 1.5 s
// of load at 4 Mbps on 100 ms ticks is 15 ticks and 750 000 B.
func TestFluidRestartMovesHorizon(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	l := s.Connect(a, b, LinkConfig{RateBps: 10e6})
	fl, err := s.AttachFluid(l, a, FluidConfig{RateBps: 4e6, Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(time.Second)
	s.RunFor(500 * time.Millisecond)
	fl.Start(time.Second)
	s.Run()
	if bytes, ticks := s.FluidTotals(); bytes != 750_000 || ticks != 15 {
		t.Errorf("restarted at 500 ms: %d B in %d ticks, want 750000 B in 15", bytes, ticks)
	}
	if got := s.Now().Sub(simStart); got != 1500*time.Millisecond {
		t.Errorf("last tick at +%v, want +1.5s", got)
	}
}
