// E6: the metro-scale engine experiment. Every paper scenario runs on
// the netem substrate, so the substrate's own throughput bounds the
// scenario sizes we can explore. E6 stamps out the paper's Figure-1
// shape at metro scale with netem.BuildFanout — one discriminatory
// transit network in front of one supportive ISP with 10,000 customer
// hosts — attaches the real stateless neutralizer at the border, pushes
// open-loop shim traffic through it, and reports the engine's
// sim-events/sec and forwarded packets/sec alongside the scenario-level
// verdicts (deliveries, classifier hits).
//
// The fan-out is built sharded (netem.FanoutSpec.ShardSubtrees): the
// outside world and transit in shard 0, the neutralizer border in shard
// 1, one shard per customer subtree. MetroConfig.Workers chooses how
// many threads execute the shards; with a fixed seed the outcome is
// bit-identical at every worker count (E9 sweeps this).
package eval

import (
	"fmt"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

// MetroConfig parameterizes the metro-scale run; the zero value is
// filled with the E6 defaults.
type MetroConfig struct {
	// Hosts is the customer host count (default 10000).
	Hosts int
	// Seed drives the simulator PRNG.
	Seed int64
	// Duration is the simulated time to run traffic for (default 2s).
	Duration time.Duration
	// RatePps is the open-loop offered load in packets per simulated
	// second (default 50000) from the outside source through the
	// neutralizer.
	RatePps float64
	// LocalPps, when positive, adds intra-subtree chatter: hosts talk
	// to a neighbor under the same edge at this aggregate rate. This is
	// the load component that lives entirely inside the customer
	// shards — the parallel-scaling experiments (E9, the parallel
	// benchmark) use it to model a metro whose hosts are not idle.
	LocalPps float64
	// Workers is how many threads execute the sharded engine
	// (default 1; results are identical at any value).
	Workers int
	// Observe attaches the full observability plane — an epoch-barrier
	// Recorder and a packet FlightRecorder on the sim's registry — and
	// fills MetroStats.Obs with the observation digest. Observation is
	// passive: every deterministic outcome, including the digest itself,
	// stays bit-identical at any worker count.
	Observe bool
	// Attach, if set, runs against the built simulator before any
	// traffic is scheduled. neutsim's -metrics flag uses it to mount a
	// publishing Recorder, FlightRecorder and HTTP exporters on the
	// run's own registry. Attached observers must follow the OnBarrier
	// contract (never mutate sim state).
	Attach func(*netem.Simulator)
}

func (c *MetroConfig) fill() {
	orDefault(&c.Hosts, 10000)
	orDefault(&c.Duration, 2*time.Second)
	orDefault(&c.RatePps, 50000)
	orDefault(&c.Workers, 1)
}

// MetroStats is the outcome of a metro-scale run.
type MetroStats struct {
	Hosts int
	// Sent counts neutralized packets from the outside source;
	// LocalSent counts intra-subtree host chatter.
	Sent      int
	LocalSent int
	EngineRun
	ForwardPps   float64 // Forwarded / RunTime
	DeliveredPps float64 // Delivered / RunTime
}

// metroWorld is the substrate of RunMetro: the sharded fan-out with the
// real stateless neutralizer attached at the border on the zero-alloc
// scratch path, plus one pre-built shim data packet per customer host
// (the neutralizer re-derives the session key from (epoch, nonce, src)
// and decrypts the hidden per-host destination).
type metroWorld struct {
	*fanoutEnv
	templates [][]byte
}

func buildMetroWorld(seed int64, hosts, workers int, link netem.LinkConfig) (*metroWorld, error) {
	env, err := newFanoutEnv(seed, netem.FanoutSpec{
		Hosts: hosts, OutsideLink: link, TransitLink: link, EdgeLink: link,
		ShardSubtrees: true,
	}, true)
	if err != nil {
		return nil, err
	}
	env.Sim.SetWorkers(workers)

	// One source, so one session key: every template seals its host under it.
	flow, err := benchenv.NewFlow(env.Sched, env.Epoch, env.Fan.OutsideAddr(0), keys.Nonce{0xE6, 1}, wire.ProtoUDP)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 64)
	templates, err := benchenv.Templates(hosts, benchenv.DataLen(len(payload)), func(b []byte, i int) ([]byte, error) {
		return flow.AppendData(b, env.Fan.Spec.Anycast, env.Fan.HostAddr(i), [8]byte{byte(i), byte(i >> 8), byte(i >> 16)}, payload)
	})
	if err != nil {
		return nil, err
	}
	return &metroWorld{fanoutEnv: env, templates: templates}, nil
}

// hostNeighbor returns the same-edge neighbor of host i (the peer of
// its intra-subtree chatter), or -1 for a single-host edge.
func hostNeighbor(i, hosts, hostsPerEdge int) int {
	if j := i + 1; j < hosts && i/hostsPerEdge == j/hostsPerEdge {
		return j
	}
	if j := i - 1; j >= 0 && i/hostsPerEdge == j/hostsPerEdge {
		return j
	}
	return -1
}

// chatter is the prebuilt intra-subtree chatter wiring: for each host
// with a same-edge neighbor, a pooled template packet to that neighbor
// and a sender anchored to the host's node (so emissions run on the
// host's shard). One definition serves both the E9 experiment and the
// parallel benchmark fixture, so the benchmark workload cannot drift
// from the experiment it measures.
type chatter struct {
	nodes []*netem.Node
	sends []func(seq uint64)
}

func newChatter(f *netem.Fanout) (chatter, error) {
	var c chatter
	payload := make([]byte, 40)
	for i, host := range f.Hosts {
		j := hostNeighbor(i, len(f.Hosts), f.Spec.HostsPerEdge)
		if j < 0 {
			continue // single-host edge: nobody to talk to
		}
		tmpl, err := wire.AppendUDP(nil, f.HostAddr(i), f.HostAddr(j), probeSrcPort, 9000, payload)
		if err != nil {
			return chatter{}, err
		}
		c.nodes = append(c.nodes, host)
		c.sends = append(c.sends, trafficgen.CyclingSender(host, [][]byte{tmpl}))
	}
	return c, nil
}

// offer schedules the host-to-host load for duration d at perHost
// packets per second from every wired host. Returns the number of
// packets that will be sent.
func (c chatter) offer(perHost float64, d time.Duration) int {
	sent := 0
	for i, node := range c.nodes {
		sent += trafficgen.OpenLoop{RatePps: perHost}.Run(node, d, c.sends[i])
	}
	return sent
}

// RunMetro builds the fan-out world, attaches a neutralizer at the
// border and a (futile) targeted classifier at the transit router, and
// drives cfg.RatePps of neutralized traffic from one outside source
// toward all cfg.Hosts customers for cfg.Duration of virtual time,
// plus cfg.LocalPps of intra-subtree chatter.
func RunMetro(cfg MetroConfig) (*MetroStats, error) {
	cfg.fill()
	buildStart := time.Now()
	w, err := buildMetroWorld(cfg.Seed, cfg.Hosts, cfg.Workers, netem.LinkConfig{})
	if err != nil {
		return nil, err
	}
	sim, f := w.Sim, w.Fan
	o := attachObservation(sim, cfg.Observe)
	if cfg.Attach != nil {
		cfg.Attach(sim)
	}

	// The discriminatory transit tries to target one customer by
	// address; neutralized traffic never names it.
	rule := targetCustomer(sim, f.Transit, f.HostAddr(0))
	delivered := f.CountDeliveries()
	st := &MetroStats{Hosts: cfg.Hosts, EngineRun: EngineRun{
		Shards: sim.ShardCount(), Workers: cfg.Workers, BuildTime: time.Since(buildStart)}}

	st.Sent = trafficgen.OpenLoop{RatePps: cfg.RatePps}.Run(
		f.Outside[0], cfg.Duration, trafficgen.CyclingSender(f.Outside[0], w.templates))
	if cfg.LocalPps > 0 {
		c, err := newChatter(f)
		if err != nil {
			return nil, err
		}
		st.LocalSent = c.offer(cfg.LocalPps/float64(len(f.Hosts)), cfg.Duration)
	}
	st.Offered = uint64(st.Sent + st.LocalSent)

	err = st.drive("metro", "transit", sim, rule, o, delivered)
	if sec := st.RunTime.Seconds(); sec > 0 {
		st.ForwardPps = float64(st.Forwarded) / sec
		st.DeliveredPps = float64(st.Delivered) / sec
	}
	return st, err
}

const metroTitle = "Metro-scale emulation (customer fan-out behind one neutralizer domain)"

// Result renders the run as the E6 rows. Everything that depends on how
// long the host took, or on how many workers it used, sits in the wall
// rows, so the others compare equal across -simworkers.
func (st *MetroStats) Result() *Result {
	return &Result{ID: "E6", Title: metroTitle, Rows: []Row{
		{Metric: "customer hosts", Paper: "-", Measured: fmt.Sprintf("%d", st.Hosts),
			Note: fmt.Sprintf("%d-node fan-out across %d shards", st.Hosts, st.Shards)},
		{Metric: "packets delivered", Paper: "all",
			Measured: fmt.Sprintf("%d/%d", st.Delivered, st.Sent+st.LocalSent),
			Note: fmt.Sprintf("open-loop load: %d neutralized + %d intra-subtree, %d dropped",
				st.Sent, st.LocalSent, st.Dropped)},
		{Metric: "classifier hits at transit", Paper: "0",
			Measured: fmt.Sprintf("%d", st.ClassifierHits), Note: "address-targeting rule cannot fire"},
		{Metric: "sim events", Paper: "-",
			Measured: fmt.Sprintf("%d", st.SimEvents),
			Note:     fmt.Sprintf("%d forwarding hops", st.Forwarded)},
		{Metric: "pooled buffers allocated", Paper: "-",
			Measured: fmt.Sprintf("%d", st.PoolAllocated),
			Note:     fmt.Sprintf("for %d checkouts (recycled, not copied per hop)", st.PoolGets)},
		{Metric: "topology build", Paper: "-", Wall: true,
			Measured: st.BuildTime.Round(time.Millisecond).String(), Note: "fan-out, routes, neutralizer, packet templates"},
		{Metric: "sim events/sec", Paper: "-", Wall: true,
			Measured: fmt.Sprintf("%.0f", st.EventsPerSec),
			Note: fmt.Sprintf("%v wall on %d sim worker(s); %s", st.RunTime.Round(time.Millisecond), st.Workers,
				lanePushNote(st.LanePushes, st.HeapPushes))},
		{Metric: "packets forwarded/sec", Paper: "-", Wall: true,
			Measured: fmt.Sprintf("%.0f", st.ForwardPps),
			Note:     fmt.Sprintf("%.0f delivered/sec", st.DeliveredPps)},
	}}
}

// lanePushNote words the event-queue push split for a wall row: which
// structure took a push is execution strategy, so it stays off the
// replay-diffed rows.
func lanePushNote(lane, heap uint64) string {
	return fmt.Sprintf("queue lanes took %.2f%% of %d pushes", 100*float64(lane)/float64(max(lane+heap, 1)), lane+heap)
}

// AttachNeutralizerScratch wires a core.Neutralizer into a netem node on
// the zero-allocation scratch path: shim packets delivered to the node
// are processed and the outputs sent back into the fabric (which copies
// them into pooled buffers before the next Reset). Processing is
// instantaneous in virtual time: SendPacketProc records the journey's
// Proc trace component — the neutralizer's share of latency — as zero.
func AttachNeutralizerScratch(node *netem.Node, n *core.Neutralizer) {
	s := core.NewScratch()
	node.SetHandler(func(now time.Time, pkt []byte) {
		s.Reset()
		outs, err := n.ProcessScratch(s, pkt)
		if err != nil {
			return
		}
		for _, o := range outs {
			if len(o.Pkt) < wire.IPv4HeaderLen {
				continue
			}
			_ = node.SendPacketProc(node.NewPacket(o.Pkt), 0)
		}
	})
}
