// E5: the sharded data plane. The paper argues the neutralizer scales by
// anycast replication because it is stateless; this experiment runs the
// claim in-process, measuring forward-path throughput through a
// core.Pool at increasing worker counts against the serial one-scratch
// baseline. On a single-core host the worker sweep degenerates
// (time-slicing cannot beat one worker); the row notes record GOMAXPROCS
// so results stay interpretable.
package eval

import (
	"fmt"
	"runtime"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
)

// shardBatchSources is the number of distinct outside sources in the E5
// batch: enough that FNV sharding spreads load across every worker.
const shardBatchSources = 64

// RunE5 measures ProcessBatch throughput as the worker count grows.
func RunE5() (*Result, error) {
	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	pkts, err := env.DataBatch(shardBatchSources, 256)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E5", Title: "Sharded stateless data plane (anycast scaling in-process)"}

	// Serial baseline: one worker, one scratch, packet at a time.
	const serialPasses = 40
	rate := processRate(serialPasses*len(pkts), env.Neut, pkts...)
	res.Rows = append(res.Rows, Row{
		Metric: "serial ProcessScratch", Paper: "-", Measured: kpps(rate),
		Note: "zero-alloc path, one worker",
	})

	// Worker sweep through the pool.
	var oneWorker float64
	for _, workers := range []int{1, 2, 4} {
		pool, err := core.NewPool(core.PoolConfig{Workers: workers, Config: env.NeutralizerConfig()})
		if err != nil {
			return nil, err
		}
		// Warm the buffer rings before timing.
		pool.ProcessBatch(pkts)
		const batches = 60
		start := time.Now()
		var dropped int
		for b := 0; b < batches; b++ {
			_, d := pool.ProcessBatch(pkts)
			dropped += d
		}
		el := time.Since(start).Seconds()
		pool.Close()
		if dropped != 0 {
			return nil, fmt.Errorf("eval: E5 dropped %d packets", dropped)
		}
		r := float64(batches*len(pkts)) / el
		if workers == 1 {
			oneWorker = r
		}
		note := fmt.Sprintf("batch=%d, GOMAXPROCS=%d", len(pkts), runtime.GOMAXPROCS(0))
		if workers > 1 && oneWorker > 0 {
			note = fmt.Sprintf("%.2fx of 1 worker, %s", r/oneWorker, note)
		}
		res.Rows = append(res.Rows, Row{
			Metric:   fmt.Sprintf("ProcessBatch %d worker(s)", workers),
			Paper:    "-",
			Measured: kpps(r),
			Note:     note,
		})
	}
	res.Rows = append(res.Rows, Row{
		Metric: "statelessness", Paper: "any replica serves any packet",
		Measured: "verified",
		Note:     "shard placement is a locality heuristic only (see core tests)",
	})
	return res, nil
}
