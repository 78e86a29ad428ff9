// Benchmarks for the quantities no other harness reports. The paper's
// evaluation numbers (§4) and the ablations are measured by the
// experiments (`neutsim -exp E1` … `A3`, see README.md), and the
// data-plane and engine end-to-end costs by `go run ./benchmark`; six
// per-unit readings have a twin in neither. Three are here (TraceOff,
// SimnetUDPEcho, DPIFeatureUpdate); the three that read a reduced
// experiment's fixture (DPIClassify, CloakFrame, AuditTrial) are in
// internal/eval's bench_test.go:
//
//	go test -run '^$' -bench . -benchmem . ./internal/eval
//
// A single sample on a shared host is a reading, not a regression
// verdict.
package netneutral_test

import (
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/dpi"
	"netneutral/internal/netem"
	"netneutral/internal/simnet"
	"netneutral/internal/wire"
)

// reportKpps converts ns/op over a batch into thousands of packets per
// second, the unit the paper reports.
func reportKpps(b *testing.B, pktsPerOp int) {
	if b.Elapsed() <= 0 || b.N == 0 {
		return
	}
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(pktsPerOp)/nsPerOp*float64(time.Second.Nanoseconds())/1e3, "kpps")
}

// forwardBenchPacket is the plain IPv4/UDP packet (64-byte payload, the
// bench env's vanilla size) BenchmarkTraceOff pushes a→r→c.
func forwardBenchPacket(b *testing.B) []byte {
	b.Helper()
	pkt, err := wire.AppendUDP(nil, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1"), 4000, 5000, make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

// BenchmarkTraceOff measures the forwarding hot path with per-hop delay
// attribution armed but no flight recorder attached: a cause-tagged
// policing hook on the router delays every packet, so the attribution
// accumulators (queue wait, serialization, propagation, policy delay)
// are exercised on every hop. The acceptance bar is still 0 allocs/op
// (enforced by netem's TestForwardingZeroAlloc) — with tracing off, the
// attribution plumbing must cost nothing on the allocator.
func BenchmarkTraceOff(b *testing.B) {
	simStart := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	sim := netem.NewSimulator(simStart, 1)
	a := sim.MustAddNode("a", "", netip.MustParseAddr("10.0.0.1"))
	r := sim.MustAddNode("r", "", netip.MustParseAddr("10.0.0.254"))
	c := sim.MustAddNode("c", "", netip.MustParseAddr("10.0.1.1"))
	sim.Connect(a, r, netem.LinkConfig{Delay: time.Millisecond})
	sim.Connect(r, c, netem.LinkConfig{Delay: time.Millisecond})
	sim.BuildRoutes()
	r.AddTransitHook(func(time.Time, *netem.Node, []byte) netem.Verdict {
		return netem.Verdict{
			Delay: 200 * time.Microsecond,
			Cause: netem.CauseClassDelay,
			Class: 1,
		}
	})
	delivered := 0
	c.SetHandler(func(time.Time, []byte) { delivered++ })
	pkt := forwardBenchPacket(b)
	// Warm the pool and the event heap so the timed region is steady
	// state.
	_ = a.Send(pkt)
	sim.Run()
	b.SetBytes(int64(len(pkt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(pkt); err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("delivered %d/%d", delivered, b.N+1)
	}
	reportKpps(b, 1)
}

// BenchmarkSimnetUDPEcho measures the simnet bridge's wake/step overhead:
// one blocking UDP echo round trip (client WriteToUDPAddrPort -> virtual
// 1ms link -> server ReadFromUDPAddrPort/WriteToUDPAddrPort -> client
// ReadFromUDPAddrPort) per op, driven by the
// quiescence-detecting driver. The dominant cost is the runtime.Stack
// quiescence probe per wake, which is the price of running unmodified
// blocking protocol stacks deterministically; the "rtps" metric (echo
// round trips per wall second) keeps bridge overhead visible.
func BenchmarkSimnetUDPEcho(b *testing.B) {
	simStart := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	sim := netem.NewSimulator(simStart, 1)
	srvAddr := netip.MustParseAddr("10.0.0.1")
	s := sim.MustAddNode("srv", "", srvAddr)
	c := sim.MustAddNode("cli", "", netip.MustParseAddr("10.0.0.2"))
	sim.Connect(s, c, netem.LinkConfig{Delay: time.Millisecond})
	sim.BuildRoutes()
	n := simnet.New(sim)
	srv, err := n.ListenUDP(s, 7)
	if err != nil {
		b.Fatal(err)
	}
	srvEP := netip.AddrPortFrom(srvAddr, 7)
	cli, err := n.ListenUDP(c, 0)
	if err != nil {
		b.Fatal(err)
	}
	n.Go(func() {
		buf := make([]byte, 128)
		for {
			m, from, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := srv.WriteToUDPAddrPort(buf[:m], from); err != nil {
				return
			}
		}
	})
	done := 0
	n.Go(func() {
		defer srv.Close()
		msg := make([]byte, 64)
		buf := make([]byte, 128)
		for i := 0; i < b.N; i++ {
			if _, err := cli.WriteToUDPAddrPort(msg, srvEP); err != nil {
				return
			}
			if m, _, err := cli.ReadFromUDPAddrPort(buf); err != nil || m != len(msg) {
				return
			}
			done++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := n.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d/%d round trips", done, b.N)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(done)/sec, "rtps")
	}
}

// BenchmarkDPIFeatureUpdate measures the statistical adversary's
// per-packet cost: one flow-table Observe (map lookup + windowed
// feature arithmetic) per op. This path runs inside a transit hook on
// the forwarding hot path, so the acceptance bar is 0 allocs/op
// (dpi's TestObserveExistingFlowZeroAlloc).
func BenchmarkDPIFeatureUpdate(b *testing.B) {
	tab := dpi.NewFlowTable(nil)
	key, err := netem.FlowKeyFrom(
		netip.MustParseAddr("172.16.1.10"), netip.MustParseAddr("10.200.0.1"), wire.ProtoShim)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	tab.Observe(key, true, 212, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += int64(20 * time.Millisecond)
		tab.Observe(key, true, 212, now)
	}
	b.StopTimer()
	reportKpps(b, 1)
}
