// Package trafficgen generates the workloads the experiments run:
// open-loop target-rate sources over pooled packet buffers (OpenLoop +
// CyclingSender: the metro-scale load model), app-shaped sources
// (AppSource: VoIP, video, bulk, web) whose size/timing structure gives
// the statistical dpi adversary something real to fingerprint, and the
// auditor's shape-neutral control probes (ControlSource) — all scheduled
// deterministically on a netem simulator.
package trafficgen

import (
	"math"
	"math/rand"
	"time"

	"netneutral/internal/netem"
)

// selfReschedule fires n emissions interval apart, rescheduling one
// event at a time so a long stream costs one pending event, not n.
func selfReschedule(on netem.Context, interval time.Duration, n int, fire func(seq uint64)) int {
	if n <= 0 {
		return 0
	}
	i := 0
	var step func()
	step = func() {
		fire(uint64(i))
		i++
		if i < n {
			on.Schedule(interval, step)
		}
	}
	on.Schedule(0, step)
	return n
}

// OpenLoop emits events at a constant target rate regardless of network
// feedback — the load model for the metro-scale experiments, where tens
// of thousands of packets per simulated second are pushed through one
// neutralizer domain. It self-reschedules, keeping the pending event
// count at one however long the run is.
type OpenLoop struct {
	// RatePps is the target emission rate in packets per second of
	// virtual time.
	RatePps float64
	// Count optionally caps total emissions (0 = run for the duration).
	Count int
}

// Run schedules the open-loop source on the scheduling context for
// duration d; emit receives the sequence number. Returns the number of
// emissions that will occur. Anchor the context to the sending node on
// sharded simulations so emissions run on the node's shard.
func (o OpenLoop) Run(on netem.Context, d time.Duration, emit func(seq uint64)) int {
	if o.RatePps <= 0 {
		return 0
	}
	interval := time.Duration(float64(time.Second) / o.RatePps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	n := o.Count
	if n == 0 {
		n = int(d / interval)
	}
	return selfReschedule(on, interval, n, emit)
}

// CyclingSender returns an OpenLoop emit function that sends the template
// packets round-robin from node. Each emission checks a buffer out of the
// simulator's packet pool and copies the template into it — the one copy
// of the packet's journey — so steady-state generation does not allocate.
func CyclingSender(node *netem.Node, templates [][]byte) func(seq uint64) {
	if len(templates) == 0 {
		panic("trafficgen: CyclingSender needs at least one template packet")
	}
	return func(seq uint64) {
		_ = node.SendPacket(node.NewPacket(templates[int(seq%uint64(len(templates)))]))
	}
}

func expRand(rng *rand.Rand, rate float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}
