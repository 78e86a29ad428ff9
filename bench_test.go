// Benchmarks for the quantities no other harness reports. The paper's
// evaluation numbers (§4) and the ablations are measured by the
// experiments (`neutbench -exp E1` … `A3`, see README.md), and the
// data-plane and engine end-to-end costs by `go run ./benchmark`; what
// stays here are six per-unit readings without a twin in either:
//
//	go test -run '^$' -bench . -benchmem
//
// A single sample on a shared host is a reading, not a regression
// verdict.
package netneutral_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/cloak"
	"netneutral/internal/dpi"
	"netneutral/internal/eval"
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
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, 64)
	buf.PushPayload(make([]byte, 64))
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 255, Protocol: wire.ProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.1.1")},
		&wire.UDP{SrcPort: 4000, DstPort: 5000},
	); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
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

// dpiBenchState lazily builds the shared DPI fixture (a trained
// classifier, held-out labeled vectors with measured accuracy, and the
// cloak cost) so the dpi/cloak benchmarks pay the simulation setup
// once.
var dpiBenchState struct {
	once sync.Once
	fix  *eval.DPIBench
	err  error
}

func dpiFixture(b *testing.B) *eval.DPIBench {
	b.Helper()
	dpiBenchState.once.Do(func() {
		dpiBenchState.fix, dpiBenchState.err = eval.NewDPIBench()
	})
	if dpiBenchState.err != nil {
		b.Fatal(dpiBenchState.err)
	}
	return dpiBenchState.fix
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

// BenchmarkDPIClassify measures one flow classification (feature
// vector against all trained profiles) and reports the classifier's
// held-out accuracy on encrypted-but-uncloaked app traffic as the
// "acc" metric (E7 requires >= 0.90). Must be 0 allocs/op (dpi's
// TestObserveExistingFlowZeroAlloc covers the periodic classification).
func BenchmarkDPIClassify(b *testing.B) {
	fix := dpiFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if class, _ := fix.Cls.ClassifyVec(&fix.Samples[i%len(fix.Samples)].Vec); class == dpi.ClassUnknown {
			b.Fatal("classifier returned unknown")
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.Accuracy, "acc")
}

// BenchmarkCloakFrame measures the cloak encode+decode round trip on a
// VoIP-size payload (reused buffer, 0 allocs/op) and reports the
// measured E7 cloak goodput overhead (wire bytes per real byte) as the
// "xreal" metric.
func BenchmarkCloakFrame(b *testing.B) {
	fix := dpiFixture(b)
	payload := make([]byte, 160)
	buf := make([]byte, 0, cloak.FrameSize)
	b.SetBytes(160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cloak.AppendFrame(buf[:0], payload)
		got, cover, err := cloak.DecodeFrame(buf)
		if err != nil || cover || len(got) != len(payload) {
			b.Fatalf("round trip: %d bytes cover=%v err=%v", len(got), cover, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.CloakOverhead, "xreal")
}

// auditBenchState lazily builds the shared audit fixture (a reduced E8
// run's measured detection power and false-positive rate plus one
// blatant-dpi vantage report) so the audit benchmark pays the
// simulation setup once.
var auditBenchState struct {
	once sync.Once
	fix  *eval.AuditBench
	err  error
}

func auditFixture(b *testing.B) *eval.AuditBench {
	b.Helper()
	auditBenchState.once.Do(func() {
		auditBenchState.fix, auditBenchState.err = eval.NewAuditBench()
	})
	if auditBenchState.err != nil {
		b.Fatal(auditBenchState.err)
	}
	return auditBenchState.fix
}

// BenchmarkAuditTrial measures one full per-vantage audit decision —
// goodput and delay sample extraction, Mann-Whitney, Kolmogorov-
// Smirnov and exceedance tests, effect gates — on a real blatant-dpi
// vantage report, and reports the fixture's measured detection power
// ("power", the audit_detection_power check, >= 0.90) and neutral-ISP
// false-positive rate ("fpr", audit_false_positive_rate, <= 0.05).
func BenchmarkAuditTrial(b *testing.B) {
	fix := auditFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := audit.Decide(fix.Report); !v.Discriminated {
			b.Fatal("blatant-dpi vantage report not ruled discriminated")
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.Power, "power")
	b.ReportMetric(fix.FPR, "fpr")
}
