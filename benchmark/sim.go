//go:build linux

package main

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/eval"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

// sim-metro and sim-backbone: the E6 metro and the E13 backbone through
// internal/eval, as users run them, repeated for the measuring time.
// The per-layer numbers come from harness-built replicas of the two
// scenarios that give the harness the simulator handle eval keeps to
// itself; a replica must reproduce eval's event and delivery counts
// exactly for the same seed before its numbers are reported.

// simStart is the virtual epoch eval anchors its scenarios at.
var simStart = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

// simCounts are the exact counts a run must reproduce for equal seeds,
// across repeats and between eval and the replica.
type simCounts struct {
	sent, delivered, forwarded, events, poolGets, fluidTicks uint64
}

// simRun is one repeat's outcome in the terms both scenarios share.
type simRun struct {
	counts     simCounts
	hits       uint64
	build, run time.Duration
}

// simWorkers is the worker count of every gated repeat. One, for the
// backbone too: on two, the wall time of the same code swung 455 to
// 1470 ns per event inside a quarter of an hour with the host's
// willingness to run both vCPUs at once, and no reference tracked it. The
// two-worker speed-up is a per-layer metric.
const simWorkers = 1

type simScenario struct {
	name   string
	simDur time.Duration
	run    func(workers int, observe bool) (simRun, error)
}

func metroConfig(c *runCtx) eval.MetroConfig {
	cfg := eval.MetroConfig{Hosts: 10000, Duration: 8 * time.Second, RatePps: 50000, Seed: c.seed}
	if c.probe {
		cfg.Hosts, cfg.Duration = 1000, 400*time.Millisecond
	}
	return cfg
}

func metroScenario(c *runCtx) simScenario {
	cfg := metroConfig(c)
	return simScenario{name: "sim-metro", simDur: cfg.Duration,
		run: func(workers int, observe bool) (simRun, error) {
			cfg := cfg
			cfg.Workers, cfg.Observe = workers, observe
			st, err := eval.RunMetro(cfg)
			if st == nil {
				return simRun{}, err
			}
			return simRun{
				counts: simCounts{sent: uint64(st.Sent + st.LocalSent), delivered: st.Delivered,
					forwarded: st.Forwarded, events: st.SimEvents, poolGets: st.PoolGets},
				hits: st.ClassifierHits, build: st.BuildTime, run: st.RunTime,
			}, err
		}}
}

func backboneConfig(c *runCtx) eval.BackboneConfig {
	cfg := eval.BackboneConfig{Metros: 16, HostsPerMetro: 5000, Duration: 4 * time.Second, Seed: c.seed}
	if c.probe {
		cfg.Metros, cfg.HostsPerMetro, cfg.Duration = 4, 500, 300*time.Millisecond
	}
	return cfg
}

func backboneScenario(c *runCtx) simScenario {
	cfg := backboneConfig(c)
	return simScenario{name: "sim-backbone", simDur: cfg.Duration,
		run: func(workers int, observe bool) (simRun, error) {
			cfg := cfg
			cfg.Workers, cfg.Observe = workers, observe
			st, err := eval.RunBackbone(cfg)
			if st == nil {
				return simRun{}, err
			}
			return simRun{
				counts: simCounts{sent: uint64(st.NeutSent + st.CrossSent), delivered: st.Delivered,
					forwarded: st.Forwarded, events: st.SimEvents, poolGets: st.PoolGets, fluidTicks: st.FluidTicks},
				hits: st.ClassifierHits, build: st.BuildTime, run: st.RunTime,
			}, err
		}}
}

// simTally accumulates repeats of one scenario variant.
type simTally struct {
	wallPerSim, evRate, builds []float64
	cost, rate, cpu            []float64 // in units of the reference loop
	refNs                      []float64
	first                      *simCounts
}

// record checks one repeat — delivered = sent, no classifier hit, counts
// identical to the first repeat — and adds it to the tally. refNs is the
// reference loop's time per event in the slice next to the repeat, cpu the
// process CPU the repeat used.
func (t *simTally) record(sc simScenario, r simRun, err error, cpu time.Duration, refNs float64, res *result) {
	res.Attempted += int64(r.counts.sent)
	lost := int64(r.counts.sent) - int64(r.counts.delivered)
	if lost != 0 || r.hits != 0 || err != nil {
		res.Failed += max(lost, -lost) + int64(r.hits)
		if lost == 0 && r.hits == 0 {
			res.Failed++
		}
		res.Errs = append(res.Errs, fmt.Sprintf("%s: %v (sent %d, delivered %d, classifier hits %d)",
			sc.name, err, r.counts.sent, r.counts.delivered, r.hits))
		return
	}
	if t.first == nil {
		t.first = &r.counts
	} else if *t.first != r.counts {
		res.Failed++
		res.Errs = append(res.Errs, fmt.Sprintf("%s: exact counts differ between repeats of one seed: %+v then %+v",
			sc.name, *t.first, r.counts))
	}
	simMicros := float64(sc.simDur.Microseconds())
	t.wallPerSim = append(t.wallPerSim, r.run.Seconds()/sc.simDur.Seconds())
	t.evRate = append(t.evRate, float64(r.counts.events)/r.run.Seconds())
	t.builds = append(t.builds, r.build.Seconds())
	t.refNs = append(t.refNs, refNs)
	t.cost = append(t.cost, float64(r.run.Nanoseconds())/simMicros/refNs)
	t.rate = append(t.rate, float64(r.counts.events)/r.run.Seconds()/(1e9/refNs))
	t.cpu = append(t.cpu, float64(cpu.Nanoseconds())/simMicros/refNs)
}

func runSimMetro(c *runCtx) (*result, error) { return runSim(c, metroScenario(c)) }

func runSimBackbone(c *runCtx) (*result, error) { return runSim(c, backboneScenario(c)) }

func runSim(c *runCtx, sc simScenario) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU()) // as users run the experiments
	res := newResult()
	root := c.tr.begin(0, sc.name, "benchmark")
	defer c.tr.finish(root)
	backbone := sc.name == "sim-backbone"

	if backbone {
		// Worker-count identity, outside the timed repeats.
		if runtime.NumCPU() < 2 {
			fmt.Fprintln(c.log, "sim-backbone: skipped the 2-worker passes: nproc < 2")
		} else {
			cfg := backboneConfig(c)
			cfg.Duration = min(cfg.Duration, 300*time.Millisecond)
			if _, err := eval.RunBackboneIdentity(cfg, []int{1, 2}); err != nil {
				res.Failed++
				res.Errs = append(res.Errs, err.Error())
			}
		}
	}

	var main, alt simTally
	var peaks []float64
	ref := newEventRef()
	refSlice := min(300*time.Millisecond, c.dur/8)
	prevRef := ref.nsPerEvent(refSlice) // each repeat is priced against the reference slices on either side
	minRepeats := 3
	if c.probe {
		minRepeats = 2
	}
	start := time.Now()
	for i := 0; i < minRepeats || time.Since(start) < c.dur; i++ {
		// A traced backbone run alternates one worker against two for the
		// speed-up; everything else repeats the scenario as is.
		workers, tally := simWorkers, &main
		if c.tr != nil && backbone && runtime.NumCPU() >= 2 && i%2 == 1 {
			workers, tally = 2, &alt
		}
		// Every repeat starts from a collected heap returned to the OS and
		// a fresh RSS high-water mark, so its time and peak do not depend
		// on where the previous repeat left the collector. One repeat's
		// peak still lands anywhere between the live heap and twice it
		// (GC pacing); the median over repeats is what repeats.
		debug.FreeOSMemory()
		resetPeakRSS()
		sp := c.tr.begin(root, fmt.Sprintf("repeat workers=%d", workers), "eval")
		cpu0 := selfCPU()
		t0 := time.Now()
		r, err := sc.run(workers, false)
		t1 := time.Now()
		cpu := selfCPU() - cpu0
		c.tr.add(sp, "build", "netem", t0, t0.Add(r.build))
		c.tr.add(sp, "run", "netem", t1.Add(-r.run), t1)
		c.tr.finish(sp)
		if tally == &main {
			rss, err := peakRSSMB(os.Getpid())
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, rss)
		}
		refNs := ref.nsPerEvent(refSlice)
		// CPU covers build + run; the build is a few per cent of it.
		tally.record(sc, r, err, cpu, (prevRef+refNs)/2, res)
		prevRef = refNs
	}
	if len(main.wallPerSim) == 0 {
		return nil, fmt.Errorf("%s: no repeat completed: %v", sc.name, res.Errs)
	}
	wps := median(main.wallPerSim)
	res.E2E["cost_x"] = median(main.cost)
	res.E2E["rate_x"] = median(main.rate)
	res.E2E["cpu_x"] = median(main.cpu)
	res.E2E["peak_rss_mb"] = median(peaks)
	res.E2E["setup_s"] = nominalSeconds(main.builds, main.refNs, nominalEventNs)
	res.detail("wall_s_per_sim_s", wps, "s/s", len(main.wallPerSim))
	res.detail("events_per_s", median(main.evRate), "1/s", len(main.evRate))
	res.detail("reference_event_ns", median(main.refNs), "ns", len(main.refNs))
	res.detail("setup_measured_s", median(main.builds), "s", len(main.builds))
	if c.tr == nil {
		return res, nil
	}

	L := res.Layers
	L["netem.events"] = float64(main.first.events)
	L["netem.forwarded"] = float64(main.first.forwarded)
	L["netem.delivered"] = float64(main.first.delivered)
	L["netem.pool_gets"] = float64(main.first.poolGets)
	L["netem.wall_s_per_sim_s"] = wps
	L["reference.event_ns"] = median(main.refNs)
	L["netem.host_ns_per_event"] = 1e9 / median(main.evRate)
	if backbone {
		L["netem.fluid_ticks"] = float64(main.first.fluidTicks)
		L["netem.workers_speedup_x"] = 1 // nproc < 2: nothing to compare
		if len(alt.wallPerSim) > 0 {
			L["netem.workers_speedup_x"] = wps / median(alt.wallPerSim)
		}
	}
	rep, err := replicaLayers(c, sc, root, L)
	if err != nil {
		return nil, err
	}
	if rep.counts.events != main.first.events || rep.counts.delivered != main.first.delivered {
		res.Failed++
		res.Errs = append(res.Errs, fmt.Sprintf("%s: replica ran %d events and delivered %d, eval %d and %d",
			sc.name, rep.counts.events, rep.counts.delivered, main.first.events, main.first.delivered))
	}
	L["trace.overhead_pct"] = pctDiff(wps, rep.run.Seconds()/sc.simDur.Seconds())
	if !backbone {
		if err := engineProbes(c, sc, root, L); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simTimers accumulate wall time spent in callbacks the harness wraps.
// Single-worker replicas only: the callbacks run on one goroutine.
type simTimers struct {
	hook, handler, emit time.Duration
}

// shimTemplate builds one neutralized data packet the way eval does: the
// session key from (epoch, nonce, src), dst sealed under it.
func shimTemplate(sched *keys.Schedule, epoch keys.Epoch, src, anycast, dst netip.Addr, nonce keys.Nonce, tweak [8]byte) ([]byte, error) {
	ks, err := sched.SessionKey(epoch, nonce, src)
	if err != nil {
		return nil, err
	}
	blk, err := aesutil.EncryptAddr(ks, dst, tweak)
	if err != nil {
		return nil, err
	}
	return buildShim(src, anycast, &shim.Header{
		Type: shim.TypeData, InnerProto: wire.ProtoUDP, Epoch: epoch, Nonce: nonce, HiddenAddr: blk,
	}, make([]byte, 64))
}

// attachNeutralizer is eval.AttachNeutralizerScratch with the
// ProcessScratch call timed when tm is set.
func attachNeutralizer(f *netem.Fanout, sched *keys.Schedule, tm *simTimers) error {
	neut, err := core.New(core.Config{
		Schedule: sched, Anycast: f.Spec.Anycast, IsCustomer: f.CustomerNet.Contains, Clock: f.Border.Now,
	})
	if err != nil {
		return err
	}
	if tm == nil {
		eval.AttachNeutralizerScratch(f.Border, neut)
		return nil
	}
	s := core.NewScratch()
	node := f.Border
	node.SetHandler(func(now time.Time, pkt []byte) {
		s.Reset()
		t0 := time.Now()
		outs, err := neut.ProcessScratch(s, pkt)
		tm.handler += time.Since(t0)
		if err != nil {
			return
		}
		for _, o := range outs {
			if len(o.Pkt) >= wire.IPv4HeaderLen {
				_ = node.SendPacketProc(node.NewPacket(o.Pkt), 0) // as eval: a failed send shows in the delivery count
			}
		}
	})
	return nil
}

// replica is a harness-built scenario ready to run.
type replica struct {
	sim      *netem.Simulator
	sent     int
	tallies  []*netem.DeliveryCount
	policy   *isp.Policy
	build    time.Duration
	heapGrow uint64 // live heap the build added
	hosts    int
}

func targetRule(a netip.Addr) isp.Rule {
	return isp.Rule{Name: "target-customer", Match: isp.MatchDstAddr(a), Action: isp.Action{DropProb: 1}}
}

// metroReplica rebuilds eval.RunMetro's scenario from exported parts,
// with timing wrappers on the transit hook, the border handler and the
// traffic source.
func metroReplica(c *runCtx, tm *simTimers) (*replica, error) {
	cfg := metroConfig(c)
	t0 := time.Now()
	sim := netem.NewSimulator(simStart, c.seed)
	f, err := netem.BuildFanout(sim, netem.FanoutSpec{Hosts: cfg.Hosts, ShardSubtrees: true})
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(simWorkers)
	sched := keys.NewSchedule(aesutil.Key{7}, simStart, time.Hour)
	if err := attachNeutralizer(f, sched, tm); err != nil {
		return nil, err
	}
	src := f.OutsideAddr(0)
	templates := make([][]byte, cfg.Hosts)
	for i := range templates {
		templates[i], err = shimTemplate(sched, sched.EpochAt(sim.Now()), src, f.Spec.Anycast, f.HostAddr(i),
			keys.Nonce{0xE6, 1}, [8]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		if err != nil {
			return nil, err
		}
	}
	r := &replica{sim: sim, hosts: cfg.Hosts}
	r.policy = isp.NewPolicy(sim.Rand(), targetRule(f.HostAddr(0)))
	hook := r.policy.Hook()
	f.Transit.AddTransitHook(func(now time.Time, node *netem.Node, pkt []byte) netem.Verdict {
		t0 := time.Now()
		v := hook(now, node, pkt)
		tm.hook += time.Since(t0)
		return v
	})
	r.tallies = []*netem.DeliveryCount{f.CountDeliveries()}
	r.build = time.Since(t0)
	send := trafficgen.CyclingSender(f.Outside[0], templates)
	r.sent = trafficgen.OpenLoop{RatePps: cfg.RatePps}.Run(f.Outside[0], cfg.Duration, func(seq uint64) {
		t0 := time.Now()
		send(seq)
		tm.emit += time.Since(t0)
	})
	return r, nil
}

// backboneReplica rebuilds eval.RunBackbone's scenario from exported
// parts, for the simulator handle (epoch metrics) and the build cost.
func backboneReplica(c *runCtx) (*replica, error) {
	cfg := backboneConfig(c)
	const (
		// eval's E13 defaults
		ratePps    = 2000.0
		crossFlows = 32
		crossPps   = 1000.0
	)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sim := netem.NewSimulator(simStart, c.seed)
	spec := netem.BackboneSpec{
		Metros: cfg.Metros, HostsPerMetro: cfg.HostsPerMetro, FluidBpsPerEdge: 20e6, FluidInterval: 20 * time.Millisecond,
		HostLink:    netem.LinkConfig{Delay: time.Millisecond},
		EdgeLink:    netem.LinkConfig{Delay: time.Millisecond, RateBps: 100e6, QueueLen: 512},
		TransitLink: netem.LinkConfig{Delay: time.Millisecond, QueueLen: 512},
		OutsideLink: netem.LinkConfig{Delay: time.Millisecond},
	}
	bb, err := netem.BuildBackbone(sim, spec)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	sim.SetWorkers(simWorkers)
	sched := keys.NewSchedule(aesutil.Key{7}, simStart, time.Hour)
	for _, f := range bb.Metros {
		if err := attachNeutralizer(f, sched, nil); err != nil {
			return nil, err
		}
	}
	r := &replica{sim: sim, build: build, hosts: cfg.Metros * cfg.HostsPerMetro}
	if m1.HeapAlloc > m0.HeapAlloc {
		r.heapGrow = m1.HeapAlloc - m0.HeapAlloc
	}
	nTemplates := min(cfg.HostsPerMetro, 64)
	stride := cfg.HostsPerMetro/nTemplates | 1
	type sender struct {
		node *netem.Node
		send func(uint64)
	}
	var neut, cross []sender
	for m, f := range bb.Metros {
		dst := bb.Metros[(m+1)%cfg.Metros]
		templates := make([][]byte, nTemplates)
		for k := range templates {
			templates[k], err = shimTemplate(sched, sched.EpochAt(sim.Now()), f.OutsideAddr(0), dst.Spec.Anycast,
				dst.HostAddr(k*stride%cfg.HostsPerMetro), keys.Nonce{0xE1, 3, byte(m)}, [8]byte{byte(m), byte(k), byte(k >> 8)})
			if err != nil {
				return nil, err
			}
		}
		neut = append(neut, sender{f.Outside[0], trafficgen.CyclingSender(f.Outside[0], templates)})
		for i := 0; i < crossFlows; i++ {
			tmpl, err := probeUDP(f.HostAddr(i), dst.HostAddr(i))
			if err != nil {
				return nil, err
			}
			cross = append(cross, sender{f.Hosts[i], trafficgen.CyclingSender(f.Hosts[i], [][]byte{tmpl})})
		}
	}
	r.policy = isp.NewPolicy(sim.Rand(), targetRule(bb.HostAddr(1, cfg.HostsPerMetro-1)))
	bb.Core.AddTransitHook(r.policy.Hook())
	for _, f := range bb.Metros {
		r.tallies = append(r.tallies, f.CountDeliveries())
	}
	if err := bb.StartFluid(cfg.Duration); err != nil {
		return nil, err
	}
	for _, s := range neut {
		r.sent += trafficgen.OpenLoop{RatePps: ratePps}.Run(s.node, cfg.Duration, s.send)
	}
	for _, s := range cross {
		r.sent += trafficgen.OpenLoop{RatePps: crossPps / crossFlows}.Run(s.node, cfg.Duration, s.send)
	}
	return r, nil
}

// probeUDP is eval's plain cross-metro probe packet: empty UDP, port 9000.
func probeUDP(src, dst netip.Addr) ([]byte, error) {
	return plainUDP(src, dst, 40000, 9000, 0)
}

// execute runs the replica's event loop and returns the run in the
// shared terms, plus the heap objects the loop allocated.
func (r *replica) execute() (simRun, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r.sim.Run()
	run := time.Since(t0)
	runtime.ReadMemStats(&m1)
	out := simRun{build: r.build, run: run, hits: r.policy.Hits("target-customer")}
	out.counts = simCounts{sent: uint64(r.sent), forwarded: r.sim.Forwarded(), events: r.sim.EventsProcessed()}
	for _, t := range r.tallies {
		out.counts.delivered += t.Total()
	}
	_, out.counts.poolGets = r.sim.PoolStats()
	_, out.counts.fluidTicks = r.sim.FluidTotals()
	if out.counts.delivered != out.counts.sent || out.hits != 0 {
		return out, 0, fmt.Errorf("replica delivered %d of %d packets, classifier hits %d",
			out.counts.delivered, out.counts.sent, out.hits)
	}
	return out, m1.Mallocs - m0.Mallocs, nil
}

// replicaLayers runs the scenario's replica and reports what only the
// simulator handle shows: where the run's wall time went (metro), the
// epoch structure, and the build cost per host (backbone).
func replicaLayers(c *runCtx, sc simScenario, root int, L map[string]float64) (simRun, error) {
	sp := c.tr.begin(root, "replica", "benchmark")
	defer c.tr.finish(sp)
	var tm simTimers
	var rep *replica
	var err error
	bsp := c.tr.begin(sp, "build", "netem")
	if sc.name == "sim-metro" {
		rep, err = metroReplica(c, &tm)
	} else {
		rep, err = backboneReplica(c)
	}
	c.tr.finish(bsp)
	if err != nil {
		return simRun{}, fmt.Errorf("%s replica: %w", sc.name, err)
	}
	t0 := time.Now()
	run, mallocs, err := rep.execute()
	if err != nil {
		return run, fmt.Errorf("%s replica: %w", sc.name, err)
	}
	rsp := c.tr.add(sp, "run", "netem", t0, t0.Add(run.run))
	if sc.name == "sim-metro" {
		// Accumulated callback time as children of the run span, laid end
		// to end: the run's self time is then the engine's own share.
		at := t0
		for _, ch := range []struct {
			name, layer string
			d           time.Duration
		}{{"transit hooks", "isp", tm.hook}, {"neutralizer ProcessScratch", "core", tm.handler}, {"traffic source", "trafficgen", tm.emit}} {
			c.tr.add(rsp, ch.name, ch.layer, at, at.Add(ch.d))
			at = at.Add(ch.d)
		}
		wall := run.run.Seconds()
		L["netem.hook_share"] = tm.hook.Seconds() / wall
		L["netem.handler_share"] = tm.handler.Seconds() / wall
		L["trafficgen.emit_share"] = tm.emit.Seconds() / wall
		L["netem.engine_self_share"] = 1 - (tm.hook+tm.handler+tm.emit).Seconds()/wall
		L["netem.mallocs_per_event"] = float64(mallocs) / float64(run.counts.events)
	} else {
		L["netem.build_ms_per_100k_hosts"] = rep.build.Seconds() * 1e3 / float64(rep.hosts) * 1e5
		L["netem.bytes_per_host"] = float64(rep.heapGrow) / float64(rep.hosts)
	}
	snap := rep.sim.Metrics().Snapshot()
	epochs := snap.Get("netem_epochs_total").Value
	L["netem.epochs"] = epochs
	L["netem.events_per_epoch"] = float64(run.counts.events) / max(epochs, 1)
	L["netem.epoch_wall_p50_ns"] = snap.Get("netem_epoch_wall_ns").Hist.P50
	L["netem.lookahead_sim_ns"] = snap.Get("netem_lookahead_ns").Value
	return run, nil
}

// engineProbes isolates the engine's own layers on bare simulators, and
// prices the observability plane on the metro.
func engineProbes(c *runCtx, sc simScenario, root int, L map[string]float64) error {
	n := 1000000
	pairs := 3
	if c.probe {
		n, pairs = 100000, 1
	}
	// Queue + dispatch only: a self-rescheduling no-op.
	sp := c.tr.begin(root, "Schedule×n", "netem")
	sim := netem.NewSimulator(simStart, c.seed)
	fired := 0
	var step func()
	step = func() {
		if fired++; fired < n {
			sim.Schedule(time.Microsecond, step)
		}
	}
	sim.Schedule(0, step)
	t0 := time.Now()
	sim.Run()
	L["netem.sched_ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	c.tr.finish(sp)

	// One hop: two nodes, one link, SendPacket → handler (adds FIB lookup
	// and link/queue to the above).
	sp = c.tr.begin(root, "SendPacket×n", "netem")
	sim = netem.NewSimulator(simStart, c.seed)
	aAddr, bAddr := netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.1.0.2")
	a, b := sim.MustAddNode("a", "probe", aAddr), sim.MustAddNode("b", "probe", bAddr)
	sim.Connect(a, b, netem.LinkConfig{Delay: time.Millisecond})
	sim.BuildRoutes()
	got := 0
	b.SetHandler(func(time.Time, []byte) { got++ })
	tmpl, err := probeUDP(aAddr, bAddr)
	if err != nil {
		return err
	}
	sent := trafficgen.OpenLoop{RatePps: 1e6, Count: n}.Run(a, 0, trafficgen.CyclingSender(a, [][]byte{tmpl}))
	t0 = time.Now()
	sim.Run()
	L["netem.hop_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	c.tr.finish(sp)
	if got != sent {
		return fmt.Errorf("sim-metro: one-hop probe delivered %d of %d", got, sent)
	}

	// Observability plane on against off, alternating.
	var on, off []float64
	for i := 0; i < 2*pairs; i++ {
		observe := i%2 == 1
		sp := c.tr.begin(root, fmt.Sprintf("repeat observe=%v", observe), "obs")
		r, err := sc.run(simWorkers, observe)
		c.tr.finish(sp)
		if err != nil {
			return err
		}
		if observe {
			on = append(on, r.run.Seconds())
		} else {
			off = append(off, r.run.Seconds())
		}
	}
	L["obs.overhead_pct"] = pctDiff(median(off), median(on))
	return nil
}
