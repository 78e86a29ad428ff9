// E13: the continental-scale backbone experiment. E6 proved the paper's
// Figure-1 shape at metro scale; E13 stitches many such metros — each
// with its own address blocks, its own anycast neutralizer at its own
// border — through a transit core with wide-area delays
// (netem.BuildBackbone), and runs three traffic planes at once:
//
//   - neutralized shim flows that cross the backbone: metro m's outside
//     user sends to metro (m+1)'s anycast address, so the core and every
//     transit router on the path see only (outside source, anycast
//     destination) — the paper's indistinguishability claim at
//     continental scale;
//   - plain cross-metro probe flows between customer hosts, keeping
//     packet fidelity on the measured paths;
//   - fluid background aggregates on every border↔edge link, consuming
//     link capacity without per-packet events (the hybrid abstraction
//     that makes million-host scenarios affordable).
//
// A classifier at the core targets a customer address that only
// neutralized traffic reaches; it must never fire. And the engine's
// central contract is enforced across dozens of shards: every
// deterministic outcome — including the fluid layer's byte accounting
// and the full observation digest — is bit-identical at every worker
// count.
//
// (E11 and E12 are reserved on the ROADMAP for the adaptive arms race
// and the economic layer; this experiment registers as E13.)
package eval

import (
	"fmt"
	"strings"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
)

// BackboneConfig parameterizes the continental run; the zero value gets
// the registered E13 defaults.
type BackboneConfig struct {
	// Metros is the metro count (default 6).
	Metros int
	// HostsPerMetro is the customer-host count per metro (default 1000).
	HostsPerMetro int
	// Seed drives every RNG.
	Seed int64
	// Duration is the simulated traffic time (default 400ms).
	Duration time.Duration
	// Workers executes the sharded engine (default 1).
	Workers int
	// Observe attaches the observability plane and fills Stats.Obs.
	Observe bool
}

func (c *BackboneConfig) fill() {
	orDefault(&c.Metros, 6)
	orDefault(&c.HostsPerMetro, 1000)
	orDefault(&c.Duration, 400*time.Millisecond)
	orDefault(&c.Workers, 1)
}

const (
	// backboneRatePps is each metro's neutralized cross-backbone load, in
	// packets per simulated second.
	backboneRatePps = 2000
	// backboneCrossFlows is the number of plain cross-metro host pairs
	// per metro; it must stay below HostsPerMetro-1 so the classifier
	// target stays neutralized-only.
	backboneCrossFlows = 32
	// backboneCrossPps is each metro's aggregate plain cross-metro load.
	backboneCrossPps = 1000
	// backboneFluidBps is the background aggregate per border↔edge link
	// direction: 20 Mbps on 100 Mbps edge links.
	backboneFluidBps = 20e6
)

// BackboneStats is the outcome of one continental run.
type BackboneStats struct {
	Metros int
	Hosts  int // total customer hosts

	NeutSent  int // neutralized cross-backbone packets
	CrossSent int // plain cross-metro probe packets
	EngineRun

	// sweep holds every run of the identity sweep this run opened
	// (itself first); nil for a lone RunBackbone.
	sweep []*BackboneStats
}

// backboneWorld is the built substrate of RunBackbone.
type backboneWorld struct {
	sim *netem.Simulator
	bb  *netem.Backbone
	// neutSends[m] cycles metro m's outside user through its templates
	// (neutralized, addressed to metro (m+1)'s anycast).
	neutSends []func(seq uint64)
	// crossNodes/crossSends are the plain cross-metro probe senders,
	// anchored at their source hosts.
	crossNodes []*netem.Node
	crossSends []func(seq uint64)
}

func buildBackboneWorld(cfg BackboneConfig) (*backboneWorld, error) {
	// Every metro sends to the next one and the classifier targets a
	// host of metro 1: a lone metro has neither.
	if cfg.Metros < 2 {
		return nil, fmt.Errorf("eval: backbone needs at least 2 metros, got %d", cfg.Metros)
	}
	if backboneCrossFlows >= cfg.HostsPerMetro-1 {
		return nil, fmt.Errorf("eval: %d cross flows need at least %d hosts per metro",
			backboneCrossFlows, backboneCrossFlows+2)
	}
	sim := netem.NewSimulator(benchStart, cfg.Seed)
	// The link plan: 100 Mbps edge links (so fluid load is a meaningful
	// fraction of capacity) and queue room for open-loop bursts;
	// everything keeps a positive delay, which the sharded engine requires
	// on shard-crossing links.
	bb, err := netem.BuildBackbone(sim, netem.BackboneSpec{
		Metros:          cfg.Metros,
		HostsPerMetro:   cfg.HostsPerMetro,
		FluidBpsPerEdge: backboneFluidBps,
		FluidInterval:   20 * time.Millisecond,
		HostLink:        netem.LinkConfig{Delay: time.Millisecond},
		EdgeLink:        netem.LinkConfig{Delay: time.Millisecond, RateBps: 100e6, QueueLen: 512},
		TransitLink:     netem.LinkConfig{Delay: time.Millisecond, QueueLen: 512},
		OutsideLink:     netem.LinkConfig{Delay: time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(cfg.Workers)

	// One master-key schedule serves every metro's neutralizer — the
	// paper's single supportive operator running a continental anycast
	// service.
	sched := benchenv.NewSchedule()
	epoch := sched.EpochAt(sim.Now())
	for _, f := range bb.Metros {
		if err := attachNeutralizer(sched, f); err != nil {
			return nil, err
		}
	}

	w := &backboneWorld{sim: sim, bb: bb}
	payload := make([]byte, 64)
	nTemplates := min(cfg.HostsPerMetro, 64)
	stride := cfg.HostsPerMetro/nTemplates | 1
	for m, f := range bb.Metros {
		// Metro m's outside user sends neutralized flows across the
		// backbone to metro (m+1)'s anycast; the hidden destinations
		// stride across that metro's edges.
		dstMetro := bb.Metros[(m+1)%cfg.Metros]
		src := f.OutsideAddr(0)
		nonce := keys.Nonce{0xE1, 3, byte(m)}
		templates := make([][]byte, nTemplates)
		for k := range templates {
			dst := dstMetro.HostAddr(k * stride % cfg.HostsPerMetro)
			templates[k], err = benchenv.DataPacket(sched, epoch, src, dstMetro.Spec.Anycast, dst, nonce,
				[8]byte{byte(m), byte(k), byte(k >> 8)}, payload)
			if err != nil {
				return nil, err
			}
		}
		w.neutSends = append(w.neutSends, trafficgen.CyclingSender(f.Outside[0], templates))

		// Plain cross-metro probes: host i of metro m talks to host i of
		// metro (m+1) — real packets on the paths an auditor would measure.
		for i := 0; i < backboneCrossFlows; i++ {
			host := f.Hosts[i]
			tmpl := plainUDP(f.HostAddr(i), dstMetro.HostAddr(i), probeSrcPort, 9000, nil)
			w.crossNodes = append(w.crossNodes, host)
			w.crossSends = append(w.crossSends, trafficgen.CyclingSender(host, [][]byte{tmpl}))
		}
	}
	return w, nil
}

// offer schedules d of all three traffic planes and returns how many
// neutralized and plain cross-metro packets that is.
func (w *backboneWorld) offer(d time.Duration) (neut, cross int, err error) {
	if err := w.bb.StartFluid(d); err != nil {
		return 0, 0, err
	}
	for m, f := range w.bb.Metros {
		neut += trafficgen.OpenLoop{RatePps: backboneRatePps}.Run(f.Outside[0], d, w.neutSends[m])
	}
	const perFlow = backboneCrossPps / float64(backboneCrossFlows)
	for i, host := range w.crossNodes {
		cross += trafficgen.OpenLoop{RatePps: perFlow}.Run(host, d, w.crossSends[i])
	}
	return neut, cross, nil
}

// RunBackbone builds the continental world and drives all three traffic
// planes for cfg.Duration of virtual time.
func RunBackbone(cfg BackboneConfig) (*BackboneStats, error) {
	cfg.fill()
	buildStart := time.Now()
	w, err := buildBackboneWorld(cfg)
	if err != nil {
		return nil, err
	}
	sim, bb := w.sim, w.bb
	o := attachObservation(sim, cfg.Observe)

	// The core tries to target a customer by address. Only neutralized
	// traffic reaches the classifier's target (the cross-metro probes use
	// the low host indexes), so it must never fire.
	rule := targetCustomer(sim, bb.Core, bb.HostAddr(1, cfg.HostsPerMetro-1))

	st := &BackboneStats{
		Metros: cfg.Metros, Hosts: cfg.Metros * cfg.HostsPerMetro,
		EngineRun: EngineRun{Shards: sim.ShardCount(), Workers: cfg.Workers, BuildTime: time.Since(buildStart)},
	}
	var tallies []*netem.DeliveryCount
	for _, f := range bb.Metros {
		tallies = append(tallies, f.CountDeliveries())
	}
	if st.NeutSent, st.CrossSent, err = w.offer(cfg.Duration); err != nil {
		return nil, err
	}
	st.Offered = uint64(st.NeutSent + st.CrossSent)

	err = st.drive("backbone", "core", sim, rule, o, tallies...)
	st.FluidBytes, st.FluidTicks = sim.FluidTotals()
	if err != nil {
		return st, err
	}
	if st.FluidBytes == 0 {
		return st, fmt.Errorf("eval: fluid layer accounted zero bytes")
	}
	return st, nil
}

// RunBackboneIdentity sweeps worker counts over the identical seeded
// backbone scenario and enforces bit-identical outcomes (the E6/E8/E9
// ObsDigest identity contract, extended to dozens of shards and the
// fluid layer).
func RunBackboneIdentity(cfg BackboneConfig, workers []int) ([]*BackboneStats, error) {
	out, err := workerSweep("backbone", workers, func(wk int) (*BackboneStats, error) {
		cfg.Workers = wk
		return RunBackbone(cfg)
	})
	if err != nil {
		return nil, err
	}
	out[0].sweep = out
	return out, nil
}

// RunE13 is the registered continental-scale experiment.
func RunE13() (*Result, error) {
	runs, err := RunBackboneIdentity(BackboneConfig{Seed: 13, Observe: true}, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	return runs[0].Result(), nil
}

// Result renders the run as the E13 rows. On the first run of an
// identity sweep it covers the whole sweep: one wall row per worker
// count, and the determinism row the sweep earned.
func (st *BackboneStats) Result() *Result {
	runs := st.sweep
	if runs == nil {
		runs = []*BackboneStats{st}
	}
	res := &Result{ID: "E13", Title: backboneTitle}
	res.Rows = append(res.Rows,
		Row{Metric: "topology", Paper: "-",
			Measured: fmt.Sprintf("%d metros, %d hosts, %d shards", st.Metros, st.Hosts, st.Shards),
			Note:     fmt.Sprintf("prefix-compressed FIBs: the core holds %d routes", 3*st.Metros)},
		Row{Metric: "cross-backbone packets delivered", Paper: "all",
			Measured: fmt.Sprintf("%d/%d", st.Delivered, st.NeutSent+st.CrossSent),
			Note:     fmt.Sprintf("%d neutralized + %d plain cross-metro, %d dropped", st.NeutSent, st.CrossSent, st.Dropped)},
		Row{Metric: "classifier hits at the core", Paper: "0",
			Measured: fmt.Sprintf("%d", st.ClassifierHits),
			Note:     "address-targeting rule sees only (outside, anycast) pairs"},
		Row{Metric: "fluid background bytes", Paper: "-",
			Measured: fmt.Sprintf("%d", st.FluidBytes),
			Note: fmt.Sprintf("%d rate-update ticks instead of ~%dk packet events",
				st.FluidTicks, st.FluidBytes/1500/1000)},
		Row{Metric: "sim events per run", Paper: "-",
			Measured: fmt.Sprintf("%d", st.SimEvents),
			Note:     fmt.Sprintf("%d forwarding hops", st.Forwarded)},
	)
	var workers []string
	for _, r := range runs {
		workers = append(workers, fmt.Sprint(r.Workers))
		res.Rows = append(res.Rows, Row{
			Metric: fmt.Sprintf("events/sec at %d worker(s)", r.Workers), Paper: "-", Wall: true,
			Measured: fmt.Sprintf("%.0f", r.EventsPerSec),
			Note: fmt.Sprintf("built in %v, ran %v wall; %s",
				r.BuildTime.Round(time.Millisecond), r.RunTime.Round(time.Millisecond),
				lanePushNote(r.LanePushes, r.HeapPushes)),
		})
	}
	if len(runs) > 1 {
		res.Rows = append(res.Rows, determinismRow(st.Obs, "outcome + fluid accounting",
			"workers "+strings.Join(workers, "/")))
	}
	return res
}

const backboneTitle = "Continental backbone: multi-metro anycast with fluid background load"
