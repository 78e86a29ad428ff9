//go:build linux

package main

// The metric and workload names below are the benchmark's contract:
// BENCHMARK.json at the repository root lists exactly these (the smoke
// test compares the two), and later issues quote them verbatim.

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The five end-to-end metrics. Every workload reports all five. The
// first three are ratios: the workload's cost, rate and CPU per operation
// in units of a reference operation this directory owns, measured in
// alternating slices of the same run (reference.go says why). What the
// operation and the reference are depends on the workload:
//
//	daemon-echo   cost_x = W=1 round trip through neutralizerd ÷ through the reflector
//	              rate_x = W=16 datagrams/s through neutralizerd ÷ through the reflector
//	              cpu_x  = neutralizerd CPU per datagram ÷ reflector CPU per datagram, W=16
//	core-*        cost_x = wall per packet through ProcessScratch ÷ per reference packet
//	              rate_x = 1 / cost_x, cpu_x = the same ratio in process CPU time
//	sim-*         cost_x = wall ns per simulated µs ÷ ns per reference event
//	              rate_x = simulated events/s ÷ reference events/s
//	              cpu_x  = process CPU ns per simulated µs ÷ ns per reference event
//
// setup_s is seconds at the reference's nominal speed (nominalSeconds in
// reference.go): the measured set-up time priced in the reference timed
// next to it, so it too holds still while the host's speed moves.
var endToEnd = []metricSpec{
	{Name: "cost_x", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "rate_x", Unit: "x", Better: "higher", Bound: 0.25},
	{Name: "cpu_x", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var workloads = []workloadSpec{
	{Name: "daemon-echo", Why: "real neutralizerd over loopback UDP, closed loop: socket I/O, transport loop and peer registry do most of the work, core crypto little"},
	{Name: "core-flows", Why: "in-process ProcessScratch over 64 long-lived flows: flow state repeats, so a key-schedule cache or faster AES shows at full size"},
	{Name: "core-churn", Why: "one-packet flows, return path, hostile packets, mixed sizes: the mix a flow cache bypasses and per-byte copies pay for"},
	{Name: "sim-metro", Why: "E6 10k-host metro on one worker: event queue, dispatch, FIB and link/queue dominate; no socket, core is a small share"},
	{Name: "sim-backbone", Why: "E13 16-metro backbone, 17 shards: the only workload where mailbox merge, epoch barrier, lookahead and compressed FIBs carry weight"},
}

// perLayer lists every per-layer metric a traced run prints. Layer =
// module name before the first dot.
var perLayer = []metricSpec{
	// Data-plane layers, ns per packet, timed per 4096-packet batch.
	{Name: "wire.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "shim.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "keys.kdf_ns", Unit: "ns", Better: "lower"},
	{Name: "aesutil.expand_ns", Unit: "ns", Better: "lower"},
	{Name: "aesutil.addr_dec_ns", Unit: "ns", Better: "lower"},
	{Name: "aesutil.addr_enc_ns", Unit: "ns", Better: "lower"},
	{Name: "shim.serialize_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.serialize_ns", Unit: "ns", Better: "lower"},
	{Name: "lightrsa.encrypt_ns", Unit: "ns", Better: "lower"},

	// Raw readings behind the ratios, in the issue tracker's names.
	{Name: "core.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "reference.packet_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ret_ns", Unit: "ns", Better: "lower"},
	{Name: "core.drop_truncated_ns", Unit: "ns", Better: "lower"},
	{Name: "core.drop_stale_epoch_ns", Unit: "ns", Better: "lower"},
	{Name: "core.drop_bad_block_ns", Unit: "ns", Better: "lower"},
	{Name: "core.drop_not_customer_ns", Unit: "ns", Better: "lower"},
	{Name: "core.keysetup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.keysetup_kpps", Unit: "k/s", Better: "higher"},
	{Name: "core.self_ns", Unit: "ns", Better: "lower"},
	{Name: "core.vanilla_ns", Unit: "ns", Better: "lower"},
	{Name: "core.tax_x", Unit: "x", Better: "lower"},
	{Name: "core.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "core.pool_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.pool_speedup_x", Unit: "x", Better: "higher"},
	{Name: "core.epoch_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.drops_malformed", Unit: "count", Better: "lower"},
	{Name: "core.drops_stale_epoch", Unit: "count", Better: "lower"},
	{Name: "core.drops_bad_addr_block", Unit: "count", Better: "lower"},
	{Name: "core.drops_not_customer", Unit: "count", Better: "lower"},

	{Name: "neutralizerd.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.fwd_kpps", Unit: "k/s", Better: "higher"},
	{Name: "neutralizerd.cpu_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "reflector.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "reflector.kpps", Unit: "k/s", Better: "higher"},
	{Name: "reflector.cpu_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.user_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.sys_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.cpu_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "neutralizerd.fwd_leg_p50_us", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.ret_leg_p50_us", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.rtt_samples", Unit: "count", Better: "higher"},
	{Name: "neutralizerd.loaded_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.loaded_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.timeouts", Unit: "count", Better: "lower"},
	{Name: "neutralizerd.peers", Unit: "count", Better: "lower"},
	{Name: "neutralizerd.drops_malformed", Unit: "count", Better: "lower"},
	{Name: "neutralizerd.drops_stale_epoch", Unit: "count", Better: "lower"},
	{Name: "neutralizerd.drops_bad_addr_block", Unit: "count", Better: "lower"},
	{Name: "neutralizerd.drops_not_customer", Unit: "count", Better: "lower"},
	{Name: "neutralizerd.kpps_1200B", Unit: "k/s", Better: "higher"},
	{Name: "neutralizerd.batched_kpps_w16", Unit: "k/s", Better: "higher"},
	{Name: "neutralizerd.batched_rtt_p50_us_w16", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.batched_kpps_w128", Unit: "k/s", Better: "higher"},
	{Name: "neutralizerd.batched_rtt_p50_us_w128", Unit: "us", Better: "lower"},
	{Name: "neutralizerd.workers2_kpps", Unit: "k/s", Better: "higher"},
	{Name: "loadgen.cpu_busy_share", Unit: "ratio", Better: "lower"},

	// Exact counts: a simulator-only speed-up must leave them identical.
	{Name: "netem.events", Unit: "count", Better: "lower"},
	{Name: "netem.forwarded", Unit: "count", Better: "lower"},
	{Name: "netem.delivered", Unit: "count", Better: "higher"},
	{Name: "netem.pool_gets", Unit: "count", Better: "lower"},
	{Name: "netem.fluid_ticks", Unit: "count", Better: "lower"},
	{Name: "netem.wall_s_per_sim_s", Unit: "s/s", Better: "lower"},
	{Name: "reference.event_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netem.sched_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netem.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.hook_share", Unit: "ratio", Better: "lower"},
	{Name: "netem.handler_share", Unit: "ratio", Better: "lower"},
	{Name: "trafficgen.emit_share", Unit: "ratio", Better: "lower"},
	{Name: "netem.engine_self_share", Unit: "ratio", Better: "lower"},
	{Name: "netem.mallocs_per_event", Unit: "count", Better: "lower"},
	{Name: "netem.build_ms_per_100k_hosts", Unit: "ms", Better: "lower"},
	{Name: "netem.bytes_per_host", Unit: "B", Better: "lower"},
	{Name: "netem.epochs", Unit: "count", Better: "lower"},
	{Name: "netem.events_per_epoch", Unit: "count", Better: "higher"},
	{Name: "netem.epoch_wall_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.lookahead_sim_ns", Unit: "sim_ns", Better: "higher"},
	{Name: "netem.workers_speedup_x", Unit: "x", Better: "higher"},

	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
