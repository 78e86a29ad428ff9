// Benchmarks regenerating the paper's evaluation numbers (§4) and the
// ablation measurements, one per experiment ID in the registry printed by
// `neutbench -list` (see README.md). The same measurement logic backs
// cmd/neutbench; these testing.B variants are the canonical way to
// re-measure on new hardware:
//
//	go test -bench=. -benchmem
//
// Paper reference points (AMD Opteron 2.6 GHz, Click/Linux 2.6, 2006):
// key setup 24.4 kpps; data path 422 kpps vs vanilla 600 kpps (0.70x);
// raw crypto 2.35M ops/s. Shape, not absolute values, is the target.
package netneutral_test

import (
	"crypto/rand"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/benchenv"
	"netneutral/internal/cloak"
	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/dpi"
	"netneutral/internal/eval"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/onion"
	"netneutral/internal/simnet"
	"netneutral/internal/wire"
)

func mustEnv(b *testing.B, offload, alt bool) *benchenv.BenchEnv {
	b.Helper()
	env, err := benchenv.NewBenchEnv(offload, alt)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchProcess times pkt through the neutralizer the way a data-plane
// worker runs it: one scratch, recycled per packet.
func benchProcess(b *testing.B, neut *core.Neutralizer, pkt []byte) {
	s := core.NewScratch()
	if _, err := neut.ProcessScratch(s, pkt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := neut.ProcessScratch(s, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeySetup is E1: one key-setup response per iteration
// (RSA-512 e=3 encryption at the neutralizer). Paper: 24.4 kpps.
func BenchmarkKeySetup(b *testing.B) {
	env := mustEnv(b, false, false)
	benchProcess(b, env.Neut, env.SetupPkt)
}

// BenchmarkDataPath is E3's neutralized side for an established flow: one
// (epoch, nonce, src) repeating, so the worker's session-key cache
// answers and the packet pays hidden-address decryption and header
// rewrite for the paper's 64-byte-payload packet. Paper: 422 kpps. Must
// report 0 allocs/op (TestScratchDataPathZeroAlloc enforces it).
func BenchmarkDataPath(b *testing.B) {
	env := mustEnv(b, false, false)
	b.SetBytes(int64(len(env.DataPkt)))
	benchProcess(b, env.Neut, env.DataPkt)
}

// BenchmarkDataPathMiss is the same path for the first packet of a flow —
// what the paper's neutralizer pays on every packet: session-key
// recomputation and AES key expansion on top. The flows are distinct and
// far more than the cache holds; hit-ratio must read 0.
func BenchmarkDataPathMiss(b *testing.B) {
	env := mustEnv(b, false, false)
	pkts, err := env.DataBatch(16384, 16384)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewScratch()
	b.SetBytes(int64(len(pkts[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := env.Neut.ProcessScratch(s, pkts[i%len(pkts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.SessionCacheStats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-ratio")
}

// BenchmarkReturnPath measures the reverse direction: source-address
// encryption and anycast substitution.
func BenchmarkReturnPath(b *testing.B) {
	env := mustEnv(b, false, false)
	b.SetBytes(int64(len(env.ReturnPkt)))
	benchProcess(b, env.Neut, env.ReturnPkt)
}

// batchPoolEnv builds a pool and a mixed-source batch for the sharded
// data-plane benchmarks.
func batchPoolEnv(b *testing.B, workers, batchSize int) (*core.Pool, [][]byte) {
	b.Helper()
	env := mustEnv(b, false, false)
	pkts, err := env.DataBatch(64, batchSize)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := core.NewPool(core.PoolConfig{Workers: workers, Config: env.NeutralizerConfig()})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the buffer rings and the epoch cipher cache so the timed
	// region measures steady state.
	if _, dropped := pool.ProcessBatch(pkts); dropped != 0 {
		b.Fatalf("%d packets dropped in warmup", dropped)
	}
	return pool, pkts
}

// BenchmarkProcessBatch measures the sharded batch interface end to end.
// One op is one 256-packet batch; steady state must report 0 allocs/op —
// the acceptance bar for the zero-allocation data plane.
func BenchmarkProcessBatch(b *testing.B) {
	const batchSize = 256
	b.Run(fmt.Sprintf("pkts=%d", batchSize), func(b *testing.B) {
		pool, pkts := batchPoolEnv(b, 0, batchSize)
		defer pool.Close()
		b.SetBytes(int64(batchSize * len(pkts[0])))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, dropped := pool.ProcessBatch(pkts); dropped != 0 {
				b.Fatalf("%d packets dropped", dropped)
			}
		}
		b.StopTimer()
		reportKpps(b, batchSize)
	})
}

// BenchmarkDataPathParallel sweeps the worker count of the sharded pool:
// the in-process version of the paper's anycast-replication scaling
// argument. On a multi-core host throughput should grow near-linearly to
// the core count; kpps is reported per sub-benchmark so the scaling
// curve can be read off one run (on a single-core machine the sweep is
// flat by construction).
func BenchmarkDataPathParallel(b *testing.B) {
	const batchSize = 256
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d/pkts=%d", workers, batchSize), func(b *testing.B) {
			pool, pkts := batchPoolEnv(b, workers, batchSize)
			defer pool.Close()
			b.SetBytes(int64(batchSize * len(pkts[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, dropped := pool.ProcessBatch(pkts); dropped != 0 {
					b.Fatalf("%d packets dropped", dropped)
				}
			}
			b.StopTimer()
			reportKpps(b, batchSize)
		})
	}
}

// reportKpps converts ns/op over a batch into thousands of packets per
// second, the unit the paper reports.
func reportKpps(b *testing.B, pktsPerOp int) {
	if b.Elapsed() <= 0 || b.N == 0 {
		return
	}
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(pktsPerOp)/nsPerOp*float64(time.Second.Nanoseconds())/1e3, "kpps")
}

// BenchmarkVanillaForward is E3's baseline: plain IP forwarding work on a
// packet of the same size. Paper: 600 kpps.
func BenchmarkVanillaForward(b *testing.B) {
	env := mustEnv(b, false, false)
	pkt := env.FreshVanilla()
	b.SetBytes(int64(len(pkt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%200 == 199 {
			b.StopTimer()
			pkt = env.FreshVanilla() // TTL refill, outside the timer
			b.StartTimer()
		}
		if err := core.VanillaForward(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCryptoOps is E4: the raw symmetric primitive the data path is
// built from. Paper (openssl): 2.35M ops/s.
func BenchmarkCryptoOps(b *testing.B) {
	key := aesutil.Key{1}
	data := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		_ = aesutil.CBCMAC(key, data)
	}
}

// BenchmarkAddrBlockRoundTrip measures the per-packet AES block pair
// (encrypt at source, decrypt at neutralizer).
func BenchmarkAddrBlockRoundTrip(b *testing.B) {
	key := aesutil.Key{1}
	a := netip.MustParseAddr("10.10.0.5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ct, err := aesutil.EncryptAddr(key, a, [8]byte{byte(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := aesutil.DecryptAddr(key, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeySetupAlternative is A1: the rejected §3.2 design where the
// neutralizer pays an RSA decryption per setup.
func BenchmarkKeySetupAlternative(b *testing.B) {
	env := mustEnv(b, false, true)
	benchProcess(b, env.Neut, env.AltPkt)
}

// BenchmarkKeySetupOffload is A2: neutralizer-side cost when the RSA
// encryption is delegated to a customer helper (stamp + forward only).
func BenchmarkKeySetupOffload(b *testing.B) {
	env := mustEnv(b, true, false)
	benchProcess(b, env.Neut, env.SetupPkt)
}

// BenchmarkOnionCircuitSetup is A3's baseline cost: a 3-hop telescoped
// circuit (3 RSA-1024 decryptions at relays) per flow.
func BenchmarkOnionCircuitSetup(b *testing.B) {
	relays := make([]*onion.Relay, 3)
	for i := range relays {
		r, err := onion.NewRelay(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		relays[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := onion.BuildCircuit(rand.Reader, relays...)
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkOnionDataCell is A3's per-packet baseline: three onion layers
// versus the neutralizer's single keyed hash + AES block.
func BenchmarkOnionDataCell(b *testing.B) {
	relays := make([]*onion.Relay, 3)
	for i := range relays {
		r, err := onion.NewRelay(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		relays[i] = r
	}
	circ, err := onion.BuildCircuit(rand.Reader, relays...)
	if err != nil {
		b.Fatal(err)
	}
	dst := netip.MustParseAddr("10.10.0.5")
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := circ.Send(dst, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// forwardBenchPacket is the plain IPv4/UDP packet (64-byte payload, the
// bench env's vanilla size) the a→r→c forwarding benchmarks push.
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

// BenchmarkNetemForward measures the emulator's forwarding hot path: one
// packet originated, forwarded across a router, and delivered per op
// (two links, ~6 events). The acceptance bar for the pooled-packet,
// typed-event engine is 0 allocs/op in steady state.
func BenchmarkNetemForward(b *testing.B) {
	simStart := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	sim := netem.NewSimulator(simStart, 1)
	a := sim.MustAddNode("a", "", netip.MustParseAddr("10.0.0.1"))
	r := sim.MustAddNode("r", "", netip.MustParseAddr("10.0.0.254"))
	c := sim.MustAddNode("c", "", netip.MustParseAddr("10.0.1.1"))
	sim.Connect(a, r, netem.LinkConfig{Delay: time.Millisecond})
	sim.Connect(r, c, netem.LinkConfig{Delay: time.Millisecond})
	sim.BuildRoutes()
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

// BenchmarkNetemMetro drives the 10k-host fan-out (built once) with
// bursts of neutralized traffic: the engine-scale acceptance benchmark.
// It reports sim events/sec and forwarded packets/sec. Pre-refactor
// engine on the same topology: ~10k pps (linear route scans, per-hop
// copies, closure events).
func BenchmarkNetemMetro(b *testing.B) {
	const hosts = 10000
	const burst = 512
	st, err := eval.NewMetroBench(hosts, burst)
	if err != nil {
		b.Fatal(err)
	}
	// One warmup burst outside the timer.
	if err := st.RunBurst(); err != nil {
		b.Fatal(err)
	}
	ev0, fwd0 := st.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RunBurst(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ev1, fwd1 := st.Counters()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(ev1-ev0)/sec, "events/s")
		b.ReportMetric(float64(fwd1-fwd0)/sec, "pps")
	}
}

// BenchmarkObsInc measures the observability plane's hot-path unit: one
// single-writer counter-stripe increment on a registered family per op.
// The acceptance bar (obs's TestZeroAllocHotPath) is
// 0 allocs/op — instrumentation on the deterministic sim path must
// never touch the allocator, and the plain stripe uses no atomics.
func BenchmarkObsInc(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_obs_inc_total", "Benchmark stripe.").Stripe(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	b.StopTimer()
	if got := c.Value(); got != uint64(b.N) {
		b.Fatalf("counter = %d, want %d", got, b.N)
	}
}

// BenchmarkNetemMetroObs is BenchmarkNetemMetro with the observation
// plane live: the epoch Recorder samples every registered family at
// each barrier and the FlightRecorder head-samples the trace stream.
// Compare its events/s against the unobserved metro run: the target is
// < 5% overhead — the bound that makes always-on recording tenable at
// metro scale (go run ./benchmark reports it as obs.overhead_pct).
func BenchmarkNetemMetroObs(b *testing.B) {
	const hosts = 10000
	const burst = 512
	st, err := eval.NewMetroBenchObserved(hosts, burst)
	if err != nil {
		b.Fatal(err)
	}
	// One warmup burst outside the timer.
	if err := st.RunBurst(); err != nil {
		b.Fatal(err)
	}
	ev0, fwd0 := st.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RunBurst(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ev1, fwd1 := st.Counters()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(ev1-ev0)/sec, "events/s")
		b.ReportMetric(float64(fwd1-fwd0)/sec, "pps")
	}
}

// BenchmarkNetemMetroTrace is BenchmarkNetemMetro with always-on causal
// tracing live: the deterministic flow sampler records 1% of flows end
// to end (every hop, span-assembly-complete) and the rest head-sample
// at 1-in-64. Compare its events/s against the untraced metro run: the
// target is < 5% overhead — the bound that makes always-on flow tracing
// tenable at metro scale (go run ./benchmark reports it as
// trace.overhead_pct).
func BenchmarkNetemMetroTrace(b *testing.B) {
	const hosts = 10000
	const burst = 512
	st, err := eval.NewMetroBenchTraced(hosts, burst)
	if err != nil {
		b.Fatal(err)
	}
	// One warmup burst outside the timer.
	if err := st.RunBurst(); err != nil {
		b.Fatal(err)
	}
	ev0, fwd0 := st.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RunBurst(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ev1, fwd1 := st.Counters()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(ev1-ev0)/sec, "events/s")
		b.ReportMetric(float64(fwd1-fwd0)/sec, "pps")
	}
}

// BenchmarkNetemMetroParallel measures the sharded conservative engine
// across worker counts on the E9 workload: neutralized downstream load
// plus intra-subtree host chatter on a 2048-host fan-out (10 shards),
// one 100ms simulated chunk per op — long enough that every host's
// chatter interval (~26ms at these rates) fits several emissions, and
// RunChunk's scheduled-count return is checked so the chatter half of
// the workload can never silently truncate to zero. The target is a
// 4-vs-1 worker speedup >= 2x on hosts with >= 4 cores. With a
// fixed seed the simulation outcome is bit-identical at every worker
// count (E9 enforces that); only the wall clock may differ.
func BenchmarkNetemMetroParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fix, err := eval.NewParMetroBench(2048, workers)
			if err != nil {
				b.Fatal(err)
			}
			const chunk = 100 * time.Millisecond
			if fix.RunChunk(chunk) == 0 { // warm pools, queues, shard plan
				b.Fatal("chunk scheduled no intra-subtree chatter; wrong workload")
			}
			ev0 := fix.Events()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fix.RunChunk(chunk) == 0 {
					b.Fatal("chunk scheduled no intra-subtree chatter; wrong workload")
				}
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(fix.Events()-ev0)/sec, "events/s")
			}
		})
	}
}

// BenchmarkSimnetUDPEcho measures the simnet bridge's wake/step overhead:
// one blocking UDP echo round trip (client Write -> virtual 1ms link ->
// server ReadFrom/WriteTo -> client Read) per op, driven by the
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
	cli, err := n.DialUDP(c, netip.AddrPortFrom(srvAddr, 7))
	if err != nil {
		b.Fatal(err)
	}
	n.Go(func() {
		buf := make([]byte, 128)
		for {
			m, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, err := srv.WriteTo(buf[:m], from); err != nil {
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
			if _, err := cli.Write(msg); err != nil {
				return
			}
			if m, err := cli.Read(buf); err != nil || m != len(msg) {
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
	tab := dpi.NewFlowTable(dpi.Config{})
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
	buckets := []int{1400}
	buf := make([]byte, 0, 1400)
	b.SetBytes(160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cloak.AppendFrame(buf[:0], payload, buckets)
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
		if v := audit.Decide(fix.Report, audit.DecisionConfig{}); !v.Discriminated {
			b.Fatal("blatant-dpi vantage report not ruled discriminated")
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.Power, "power")
	b.ReportMetric(fix.FPR, "fpr")
}

// BenchmarkAuditReportCodec measures the probe-report wire round trip
// (encode + decode) on the fixture's report — the surface
// FuzzAuditReport hardens.
func BenchmarkAuditReportCodec(b *testing.B) {
	fix := auditFixture(b)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = audit.AppendReport(buf[:0], fix.Report)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := audit.DecodeReport(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArmsScenario runs a reduced E7 cell matrix per iteration:
// the end-to-end regression guard on the arms-race path.
func BenchmarkArmsScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunArms(eval.ArmsConfig{
			FlowsPerClass: 8, Seed: 7, Duration: 2 * time.Second,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Scenario runs the full F1 emulation (both phases) per
// iteration: an end-to-end regression guard on simulator performance.
func BenchmarkFigure1Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunF1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVoIPScenario runs the A4 emulation per iteration.
func BenchmarkVoIPScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunA4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPushbackScenario runs the A5 emulation per iteration.
func BenchmarkPushbackScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunA5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackboneBuild prices continental-scale topology
// construction: one 4-metro x 2500-host backbone (prefix-compressed
// FIBs, slab-allocated compact hosts) per op. It reports the op time
// normalized to ms/100khosts (the 1M-hosts-in-seconds target, gated by
// netem's TestBackboneMillionHosts) and B/host — the resident heap cost
// of one customer, measured once on a retained build outside the timer.
func BenchmarkBackboneBuild(b *testing.B) {
	const metros, hostsPer = 4, 2500
	const hostsTotal = metros * hostsPer
	simStart := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	spec := netem.BackboneSpec{Metros: metros, HostsPerMetro: hostsPer}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := netem.NewSimulator(simStart, 1)
	if _, err := netem.BuildBackbone(keep, spec); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	bytesPerHost := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / hostsTotal

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := netem.NewSimulator(simStart, 1)
		if _, err := netem.BuildBackbone(s, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.KeepAlive(keep)
	msPerOp := b.Elapsed().Seconds() * 1e3 / float64(b.N)
	b.ReportMetric(msPerOp*100_000/hostsTotal, "ms/100khosts")
	b.ReportMetric(bytesPerHost, "B/host")
}

// BenchmarkBackboneEvents measures the sharded engine on the E13
// continental workload: 8 metros x 1250 customers (9 shards) carrying
// neutralized cross-backbone flows, plain cross-metro probes, and
// fluid background load; one 25ms simulated chunk per op. The target
// is >= 10M events/s at 8 workers on hosts with >= 8 cores (worker
// counts above the shard count are clamped, and a 1-core CI box says
// nothing about it). The
// seeded outcome is bit-identical at every worker count — E13 enforces
// that; only the wall clock may differ.
func BenchmarkBackboneEvents(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fix, err := eval.NewBackboneBench(8, 1250, workers)
			if err != nil {
				b.Fatal(err)
			}
			const chunk = 25 * time.Millisecond
			if n, err := fix.RunChunk(chunk); err != nil || n == 0 { // warm pools, queues, shard plan
				b.Fatalf("warmup chunk: scheduled %d, err %v", n, err)
			}
			ev0 := fix.Events()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := fix.RunChunk(chunk)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("chunk scheduled no traffic; wrong workload")
				}
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(fix.Events()-ev0)/sec, "events/s")
			}
		})
	}
}
