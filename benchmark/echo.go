//go:build linux

package main

import (
	"fmt"
	"runtime"
	"time"
)

// daemon-echo: the real neutralizerd over loopback UDP.
//
// Load model, sized for a 2-core host: one generator thread, two sockets,
// closed loop (loadgen.go), against a daemon started with its flag
// defaults (-workers 1 -batch 1). An open-loop paced generator was
// prototyped and rejected for this box: a spinning pacer is a third
// runnable thread on two cores and its p90 read 1.4–2.5 ms (scheduler
// timeslices) against a stable p50 for the single-thread closed loop — it
// measured the scheduler, not the program.
//
// The reference operation is the same round trip through
// benchmark/reflector, a separate process that forwards datagrams
// unchanged through the net package calls the daemon's loop uses: kernel
// + Go runtime + net. Chunks against the daemon alternate with chunks
// against the reflector; daemon over reflector is the daemon's own cost.

const (
	echoFlows     = 64
	echoCustomers = 16
	echoPayload   = 64 // the paper's packet size
	loadedW       = 16 // saturation without loss
)

// echoRig is a running target (neutralizerd or the reflector) with a
// generator connected and its customers registered.
type echoRig struct {
	d   *daemonProc
	gen *loadgen
	// pin is the one CPU generator and target share; nil leaves placement
	// to the scheduler (the -workers 2 alternative needs both CPUs for the
	// daemon).
	pin *cpuSet
}

func (r *echoRig) close() error {
	r.gen.close()
	return r.d.stop()
}

// run confines generator and target to one CPU, then runs the closed
// loop.
//
// Left to the scheduler the two land on one CPU or two from run to run.
// On two, every hand-off wakes an idle (in a VM: halted) CPU and a host
// that withholds either vCPU for a moment stalls both sides: the W = 1
// median read 15 to 88 µs across six runs of the same code, and W = 16
// throughput 34 to 173 k/s with round trips timing out. Sharing one CPU
// turns every hand-off into a context switch, so the readings are the
// software path — syscalls, daemon, switch. The price: rates are those of
// generator and target sharing a core, not the target's ceiling on a core
// of its own.
func (r *echoRig) run(w int, dur time.Duration, tr *tracer, parent int) (*phase, error) {
	if r.pin != nil {
		if err := pinProcess(r.d.pid(), r.pin); err != nil {
			return nil, fmt.Errorf("daemon-echo: placing the target: %w", err)
		}
	}
	return r.gen.run(w, dur, r.pin, tr, parent), nil
}

// timed is run with the target's CPU time over the phase.
func (r *echoRig) timed(w int, dur time.Duration) (ph *phase, user, sys time.Duration, err error) {
	u0, s0, err := procCPU(r.d.pid())
	if err != nil {
		return nil, 0, 0, err
	}
	if ph, err = r.run(w, dur, nil, 0); err != nil {
		return nil, 0, 0, err
	}
	u1, s1, err := procCPU(r.d.pid())
	return ph, u1 - u0, s1 - s0, err
}

// connect attaches a generator to a started target and completes one
// verified round trip. setup is exec → first echoed datagram.
func connect(d *daemonProc, mode echoMode, w *world, combos []combo) (rig *echoRig, setup time.Duration, err error) {
	gen, err := newLoadgen(d.addr, mode, combos)
	if err != nil {
		_ = d.stop() // the generator error is the one to report
		return nil, 0, err
	}
	rig = &echoRig{d: d, gen: gen}
	if allowed, err := getAffinity(0); err == nil {
		rig.pin = allowed.first()
	}
	gen.register(w.customers)
	first := gen.run(1, 0, nil, nil, 0)
	setup = time.Since(d.started)
	if len(first.rtts) != 1 || gen.wrong != 0 {
		_ = rig.close()
		return nil, 0, fmt.Errorf("daemon-echo: first round trip through %s failed (timeouts=%d, errors=%v)\n%s",
			d.cmd.Path, gen.timeouts, gen.errs, d.logText())
	}
	return rig, setup, nil
}

// startRig execs the daemon with its flag defaults plus extra.
func startRig(bin string, w *world, combos []combo, extra ...string) (*echoRig, time.Duration, error) {
	d, err := startDaemon(bin, w.root, extra...)
	if err != nil {
		return nil, 0, err
	}
	return connect(d, echoMode{rewrites: true}, w, combos)
}

// startReflector execs the reference target.
func startReflector(bin string, w *world, combos []combo) (*echoRig, time.Duration, error) {
	d, err := startProc(bin)
	if err != nil {
		return nil, 0, err
	}
	return connect(d, echoMode{}, w, combos)
}

// closeRigs stops every rig and returns the first error.
func closeRigs(rigs ...*echoRig) error {
	var first error
	for _, r := range rigs {
		if err := r.close(); first == nil {
			first = err
		}
	}
	return first
}

// loadedRun starts a daemon with extra flags, saturates it at w and
// returns its rate and loaded p50 RTT (µs).
func loadedRun(bin string, wd *world, combos []combo, w int, dur time.Duration, pinned bool, extra ...string) (kpps, rttP50 float64, err error) {
	rig, _, err := startRig(bin, wd, combos, extra...)
	if err != nil {
		return 0, 0, err
	}
	if !pinned {
		rig.pin = nil
	}
	var ph *phase
	if _, err = rig.run(w, dur/4, nil, 0); err == nil { // warm-up
		ph, err = rig.run(w, dur, nil, 0)
	}
	wrong, errs := rig.gen.wrong, rig.gen.errs
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	if wrong != 0 {
		return 0, 0, fmt.Errorf("daemon-echo: %v: corrupted datagrams: %v", extra, errs)
	}
	return ph.kpps(), quantileInt32(ph.rtts, 0.5) / 1e3, nil
}

func runDaemonEcho(c *runCtx) (*result, error) {
	runtime.GOMAXPROCS(1) // the generator is one thread; nothing else in the harness runs
	bin, err := buildCmd(c.root, c.buildDir, "./cmd/neutralizerd")
	if err != nil {
		return nil, err
	}
	refBin, err := buildCmd(c.root, c.buildDir, "./benchmark/reflector")
	if err != nil {
		return nil, err
	}
	wd := newWorld(c.rng(), echoCustomers)
	combos, err := buildCombos(wd, echoFlows, echoPayload)
	if err != nil {
		return nil, err
	}
	res := newResult()
	root := c.tr.begin(0, "daemon-echo", "benchmark")
	defer c.tr.finish(root)

	// Set-up: exec → first verified echo, several cold starts, each next to
	// a cold start of the reflector, the reference it is priced in. The last
	// pair stays up for the measurement.
	starts := 15
	if c.probe {
		starts = 2
	}
	var setups, refSetups []float64
	var rig, ref *echoRig
	for i := 0; i < starts; i++ {
		var extra []string
		if c.tr != nil && i == starts-1 {
			extra = []string{"-metrics", "127.0.0.1:0"}
		}
		sp := c.tr.begin(root, "start", "neutralizerd")
		r, setup, err := startRig(bin, wd, combos, extra...)
		c.tr.finish(sp)
		if err != nil {
			return nil, err
		}
		f, refSetup, err := startReflector(refBin, wd, combos)
		if err != nil {
			_ = r.close() // the reflector error is the one to report
			return nil, err
		}
		setups, refSetups = append(setups, setup.Seconds()), append(refSetups, refSetup.Seconds())
		if i == starts-1 {
			rig, ref = r, f
		} else if err := closeRigs(r, f); err != nil {
			return nil, err
		}
	}
	closed := false
	shutdown := func() error {
		closed = true
		return closeRigs(rig, ref)
	}
	defer func() {
		if !closed {
			_ = shutdown() // only reached on an earlier error, which is the one reported
		}
	}()

	// Warm-up: page faults, route cache, registry.
	for _, r := range []*echoRig{rig, ref} {
		if _, err := r.run(loadedW, c.dur/40, nil, 0); err != nil {
			return nil, err
		}
	}
	base := rig.gen.attempted + ref.gen.attempted

	// Phase A: W = 1, unloaded added latency. Each cycle is a chunk against
	// the daemon and a chunk against the reflector; a traced run makes
	// every other daemon chunk a traced one to price the span recording.
	chunk := min(300*time.Millisecond, c.dur/16)
	var rtts, fwd, ret, tracedRTTs, refRTTs []int32
	var costs []float64
	// Each daemon chunk is priced against the mean of the reflector chunks
	// on either side of it.
	first, err := ref.run(1, chunk/2, nil, 0)
	if err != nil {
		return nil, err
	}
	prevRef := quantileInt32(first.rtts, 0.5)
	for i, start := 0, time.Now(); time.Since(start) < c.dur/3; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = c.tr
		}
		sp := tr.begin(root, "phase-A", "loadgen")
		ph, err := rig.run(1, chunk, tr, sp)
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		rph, err := ref.run(1, chunk/2, nil, 0)
		if err != nil {
			return nil, err
		}
		if len(ph.rtts) == 0 || len(rph.rtts) == 0 {
			continue // every round trip timed out: counted in failed
		}
		refRTTs = append(refRTTs, rph.rtts...)
		floor := quantileInt32(rph.rtts, 0.5)
		if tr != nil {
			tracedRTTs = append(tracedRTTs, ph.rtts...)
		} else {
			rtts, fwd, ret = append(rtts, ph.rtts...), append(fwd, ph.fwdLegs...), append(ret, ph.retLegs...)
			costs = append(costs, quantileInt32(ph.rtts, 0.5)/((prevRef+floor)/2))
		}
		prevRef = floor
	}

	// Phase B: W = 16, saturation without loss; CPU of both targets from
	// /proc around every chunk.
	chunk = min(500*time.Millisecond, c.dur/8)
	var rates, kpps, refKpps []float64
	var loaded []int32
	var user, sys, refCPU, genCPU, wall time.Duration
	var dgrams, refDgrams float64
	firstB, err := ref.run(loadedW, chunk/2, nil, 0)
	if err != nil {
		return nil, err
	}
	prevRate := firstB.kpps()
	for start := time.Now(); time.Since(start) < c.dur*2/3; {
		sp := c.tr.begin(root, "phase-B", "loadgen")
		ph, u, s, err := rig.timed(loadedW, chunk)
		c.tr.finish(sp)
		if err != nil {
			return nil, err
		}
		rph, ru, rs, err := ref.timed(loadedW, chunk/2)
		if err != nil {
			return nil, err
		}
		if len(ph.rtts) == 0 || len(rph.rtts) == 0 {
			continue // every slot timed out: counted in failed
		}
		kpps, refKpps = append(kpps, ph.kpps()), append(refKpps, rph.kpps())
		rates = append(rates, ph.kpps()/((prevRate+rph.kpps())/2))
		prevRate = rph.kpps()
		loaded = append(loaded, ph.rtts...)
		user, sys, refCPU = user+u, sys+s, refCPU+ru+rs
		genCPU, wall = genCPU+ph.cpu, wall+ph.elapsed
		dgrams, refDgrams = dgrams+2*float64(len(ph.rtts)), refDgrams+2*float64(len(rph.rtts))
	}

	rss, err := peakRSSMB(rig.d.pid())
	if err != nil {
		return nil, err
	}
	var scraped map[string]float64
	if c.tr != nil {
		if scraped, err = rig.d.scrape(); err != nil {
			return nil, err
		}
	}
	res.Attempted = rig.gen.attempted + ref.gen.attempted - base
	res.Failed = rig.gen.timeouts + rig.gen.wrong + ref.gen.timeouts + ref.gen.wrong
	res.Errs = append(rig.gen.errs, ref.gen.errs...)
	timeouts, late := rig.gen.timeouts, rig.gen.stale
	if err := shutdown(); err != nil {
		res.Failed++
		res.Errs = append(res.Errs, fmt.Sprintf("shutdown: %v", err))
	}
	if len(costs) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("daemon-echo: no round trip completed: %v", res.Errs)
	}

	cpuPerPkt := float64((user + sys).Nanoseconds()) / dgrams
	refCPUPerPkt := float64(refCPU.Nanoseconds()) / refDgrams
	res.E2E["cost_x"] = median(costs)
	res.E2E["rate_x"] = median(rates)
	res.E2E["cpu_x"] = cpuPerPkt / refCPUPerPkt
	res.E2E["peak_rss_mb"] = rss
	res.E2E["setup_s"] = nominalSeconds(setups, refSetups, nominalReflectorStart)
	L := res.Layers
	L["neutralizerd.rtt_p50_us"] = quantileInt32(rtts, 0.5) / 1e3
	L["neutralizerd.fwd_kpps"] = median(kpps)
	L["neutralizerd.cpu_us_per_pkt"] = cpuPerPkt / 1e3
	L["reflector.rtt_p50_us"] = quantileInt32(refRTTs, 0.5) / 1e3
	L["reflector.kpps"] = median(refKpps)
	L["reflector.cpu_us_per_pkt"] = refCPUPerPkt / 1e3
	res.detail("rtt_p50_us", L["neutralizerd.rtt_p50_us"], "us", len(rtts))
	res.detail("reflector_rtt_p50_us", L["reflector.rtt_p50_us"], "us", len(refRTTs))
	res.detail("fwd_kpps", L["neutralizerd.fwd_kpps"], "k/s", len(kpps))
	res.detail("reflector_kpps", L["reflector.kpps"], "k/s", len(refKpps))
	res.detail("cpu_us_per_pkt", L["neutralizerd.cpu_us_per_pkt"], "us", int(dgrams))
	res.detail("reflector_cpu_us_per_pkt", L["reflector.cpu_us_per_pkt"], "us", int(refDgrams))
	res.detail("timeouts", float64(timeouts), "count", int(res.Attempted))
	res.detail("late_replies", float64(late), "count", int(res.Attempted))
	res.detail("setup_measured_s", median(setups), "s", len(setups))
	res.detail("reflector_setup_measured_s", median(refSetups), "s", len(refSetups))
	if c.tr == nil {
		return res, nil
	}

	// The remaining per-layer numbers (traced run only).
	L["neutralizerd.user_us_per_pkt"] = float64(user.Microseconds()) / dgrams
	L["neutralizerd.sys_us_per_pkt"] = float64(sys.Microseconds()) / dgrams
	L["neutralizerd.cpu_busy_share"] = (user + sys).Seconds() / wall.Seconds()
	L["loadgen.cpu_busy_share"] = genCPU.Seconds() / wall.Seconds()
	L["neutralizerd.fwd_leg_p50_us"] = quantileInt32(fwd, 0.5) / 1e3
	L["neutralizerd.ret_leg_p50_us"] = quantileInt32(ret, 0.5) / 1e3
	L["neutralizerd.rtt_p99_us"] = quantileInt32(rtts, 0.99) / 1e3
	L["neutralizerd.rtt_samples"] = float64(len(rtts))
	L["neutralizerd.loaded_rtt_p50_us"] = quantileInt32(loaded, 0.5) / 1e3
	L["neutralizerd.loaded_rtt_p99_us"] = quantileInt32(loaded, 0.99) / 1e3
	L["neutralizerd.timeouts"] = float64(timeouts)
	L["neutralizerd.peers"] = scraped["neutralizerd_peers"]
	for _, reason := range []string{"malformed", "stale_epoch", "bad_addr_block", "not_customer"} {
		L["neutralizerd.drops_"+reason] = scraped[`core_drops_total{reason="`+reason+`"}`]
	}
	L["trace.overhead_pct"] = pctDiff(L["neutralizerd.rtt_p50_us"]*1e3, quantileInt32(tracedRTTs, 0.5))

	big, err := buildCombos(wd, echoFlows, 1200)
	if err != nil {
		return nil, err
	}
	// The alternatives ROADMAP must choose between, each on a fresh daemon.
	alts := []struct {
		kpps, rtt string
		combos    []combo
		w         int
		flags     []string
	}{
		{kpps: "neutralizerd.kpps_1200B", combos: big, w: loadedW},
		{kpps: "neutralizerd.batched_kpps_w16", rtt: "neutralizerd.batched_rtt_p50_us_w16", combos: combos, w: loadedW, flags: []string{"-batch", "64"}},
		{kpps: "neutralizerd.batched_kpps_w128", rtt: "neutralizerd.batched_rtt_p50_us_w128", combos: combos, w: 128, flags: []string{"-batch", "64"}},
		{kpps: "neutralizerd.workers2_kpps", combos: combos, w: loadedW, flags: []string{"-workers", "2"}},
	}
	for _, a := range alts {
		// The two-worker daemon is the one target left unpinned.
		pinned := a.kpps != "neutralizerd.workers2_kpps"
		if !pinned && runtime.NumCPU() < 2 {
			fmt.Fprintln(c.log, "daemon-echo: skipped the -workers 2 pass: nproc < 2")
			L[a.kpps] = 0
			continue
		}
		sp := c.tr.begin(root, a.kpps, "neutralizerd")
		k, r, err := loadedRun(bin, wd, a.combos, a.w, c.dur/8, pinned, a.flags...)
		c.tr.finish(sp)
		if err != nil {
			return nil, err
		}
		L[a.kpps] = k
		if a.rtt != "" {
			L[a.rtt] = r
		}
	}
	return res, nil
}
