// E9: the parallel engine experiment. PR 2 made the netem substrate
// fast on one core; this experiment measures what the sharded
// conservative engine does with several. It runs the same metro
// workload — neutralized downstream load through the border plus
// intra-subtree host chatter (the component that lives entirely inside
// the customer shards) — at a sweep of worker counts, and enforces the
// engine's central contract: every deterministic outcome (packets sent,
// delivered, forwarded, dropped, classifier hits, sim events, pool
// checkouts) is bit-identical at every worker count. Speedup is
// recorded alongside host core counts; like E5, the scaling number is
// only meaningful on hosts with enough cores, so it is reported, not
// enforced, here.
package eval

import (
	"fmt"
	"runtime"
	"time"
)

// ParScaleConfig parameterizes E9; the zero value gets the registered
// experiment's defaults.
type ParScaleConfig struct {
	// Hosts is the customer host count (default 10000).
	Hosts int
	// Seed drives every RNG.
	Seed int64
	// Duration is simulated traffic time per run (default 1s).
	Duration time.Duration
	// Workers is the sweep (default 1, 2, 4, 8).
	Workers []int
}

func (c *ParScaleConfig) fill() {
	orDefault(&c.Hosts, 10000)
	orDefault(&c.Duration, time.Second)
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
}

// The swept metro workload: neutralized downstream load and
// intra-subtree chatter, in packets per simulated second.
const (
	parScaleRatePps  = 50000
	parScaleLocalPps = 100000
)

// ParScaleRun is one worker count's outcome.
type ParScaleRun struct {
	Workers int
	Stats   *MetroStats
	// Speedup is EventsPerSec relative to the 1-worker run.
	Speedup float64
}

// ParScaleStats is the full E9 outcome.
type ParScaleStats struct {
	Cfg  ParScaleConfig
	Runs []ParScaleRun
}

// RunParScale sweeps the metro workload across worker counts, each run
// observed (MetroConfig.Observe), and enforces bit-identical outcomes
// and observation digests; wall-clock scaling is recorded.
func RunParScale(cfg ParScaleConfig) (*ParScaleStats, error) {
	cfg.fill()
	runs, err := workerSweep("parscale", cfg.Workers, func(w int) (*MetroStats, error) {
		return RunMetro(MetroConfig{
			Hosts: cfg.Hosts, Seed: cfg.Seed, Duration: cfg.Duration,
			RatePps: parScaleRatePps, LocalPps: parScaleLocalPps, Workers: w, Observe: true,
		})
	})
	if err != nil {
		return nil, err
	}
	out := &ParScaleStats{Cfg: cfg}
	for _, st := range runs {
		run := ParScaleRun{Workers: st.Workers, Stats: st}
		if base := runs[0]; base.EventsPerSec > 0 {
			run.Speedup = st.EventsPerSec / base.EventsPerSec
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// Result renders the sweep as the E9 rows.
func (st *ParScaleStats) Result() *Result {
	res := &Result{ID: "E9", Title: parScaleTitle}
	first := st.Runs[0].Stats
	res.Rows = append(res.Rows, Row{
		Metric: "workload", Paper: "-",
		Measured: fmt.Sprintf("%d hosts, %d shards", first.Hosts, first.Shards),
		Note: fmt.Sprintf("%d neutralized + %d intra-subtree packets over %v simulated",
			first.Sent, first.LocalSent, st.Cfg.Duration),
	})
	for _, r := range st.Runs {
		res.Rows = append(res.Rows, Row{
			Metric: fmt.Sprintf("events/sec at %d worker(s)", r.Workers), Paper: "-", Wall: true,
			Measured: fmt.Sprintf("%.0f", r.Stats.EventsPerSec),
			Note: fmt.Sprintf("%.2fx of 1 worker, GOMAXPROCS=%d (scaling is reported, not enforced: it needs >= 4 cores)",
				r.Speedup, runtime.GOMAXPROCS(0)),
		})
	}
	res.Rows = append(res.Rows, determinismRow(first.Obs, "outcome", "every worker count"))
	return res
}

const parScaleTitle = "Parallel sharded engine: worker scaling with bit-identical replay"
