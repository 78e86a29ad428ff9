//go:build linux

// Command benchmark is the repository's one trusted benchmark. One
// invocation measures one workload end to end and checks its outputs:
//
//	go run ./benchmark --workload daemon-echo --seed 1 --seconds 15 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics of BENCHMARK.json, taken with tracing off
// (three of them ratios against a reference operation timed in the same
// run: reference.go says why); with --trace 1 they are the per-layer
// metrics, taken by a traced run that also writes a Chrome trace (see
// README.md). Without --workload it
// runs all five workloads and prints a table; -selfcheck runs the suite
// twice and compares the two against the bounds.
//
// The human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runCtx is what a workload needs to run once.
type runCtx struct {
	seed int64
	dur  time.Duration // measuring time
	// probe selects survey scale: small inputs and few repeats, for the
	// smoke test and for the layers a traced run of another workload
	// still has to report.
	probe bool
	tr    *tracer // nil with tracing off
	root  string  // module root
	// buildDir holds everything the benchmark writes: inside the checkout
	// and named in .gitignore when the harness runs as a command.
	buildDir string
	log      io.Writer
}

// rng returns a fresh generator for the run's seed. Every workload
// derives all of its inputs from it.
func (c *runCtx) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

func newRunCtx(root, buildDir string, seed int64, dur time.Duration, log io.Writer) *runCtx {
	return &runCtx{seed: seed, dur: dur, root: root, buildDir: buildDir, log: log}
}

// detail is a workload-specific reading for the human report, under the
// name the issue tracker uses for it.
type detail struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// result is one workload's outcome.
type result struct {
	Attempted int64
	Failed    int64
	E2E       map[string]float64
	Layers    map[string]float64
	Details   []detail
	Errs      []string
}

func newResult() *result {
	return &result{E2E: make(map[string]float64), Layers: make(map[string]float64)}
}

func (r *result) detail(name string, v float64, unit string, samples int) {
	r.Details = append(r.Details, detail{name, v, unit, samples})
}

var runners = map[string]func(*runCtx) (*result, error){
	"daemon-echo":  runDaemonEcho,
	"core-flows":   runCoreFlows,
	"core-churn":   runCoreChurn,
	"sim-metro":    runSimMetro,
	"sim-backbone": runSimBackbone,
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(c *runCtx, name string) (*result, error) {
	resetPeakRSS()
	c.tr = nil
	res, err := runners[name](c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range endToEnd {
		if v, ok := res.E2E[m.Name]; !ok || v <= 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s missing or not positive (%v)", name, m.Name, v)
		}
	}
	return res, nil
}

// runTraced produces every per-layer metric: the named workload traced
// at full scale, and the layers only other workloads exercise surveyed
// at probe scale first (the named workload runs last, so its readings
// win where two workloads report the same layer).
func runTraced(c *runCtx, name, traceOut string) (*result, error) {
	c.tr = newTracer()
	merged := newResult()
	order := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.Name != name {
			order = append(order, w.Name)
		}
	}
	order = append(order, name)
	for _, w := range order {
		wc := *c
		wc.probe = c.probe || w != name
		if wc.probe {
			wc.dur = min(c.dur, time.Second)
		}
		c.tr.setLane(w)
		res, err := runners[w](&wc)
		if err != nil {
			return nil, fmt.Errorf("%s (traced, for %s): %w", w, name, err)
		}
		for k, v := range res.Layers {
			merged.Layers[k] = v
		}
		if w == name {
			merged.Attempted, merged.Failed = res.Attempted, res.Failed
			merged.Details, merged.Errs = res.Details, res.Errs
		} else if res.Failed != 0 {
			return nil, fmt.Errorf("%s (traced, for %s): %d failed operations: %v", w, name, res.Failed, res.Errs)
		}
	}
	for _, m := range perLayer {
		if _, ok := merged.Layers[m.Name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not produced", name, m.Name)
		}
	}
	if err := c.tr.writeChrome(traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(c.log, "trace: %d spans written to %s (open in ui.perfetto.dev); self time by layer:\n", len(c.tr.spans), traceOut)
	self := c.tr.selfNanos()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(c.log, "  %-14s %10.3f ms\n", l, float64(self[l])/1e6)
	}
	return merged, nil
}

// The one-line result the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(traced bool) resultLine {
	specs, vals := endToEnd, r.E2E
	if traced {
		specs, vals = perLayer, r.Layers
	}
	out := resultLine{
		Correct: r.Failed == 0, Attempted: max(r.Attempted, 1), Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(specs)),
	}
	for _, m := range specs {
		out.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// report prints one workload's metrics by name with unit, direction,
// bound and sample count.
func report(w io.Writer, name string, res *result, traced bool) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d (fail_ratio %.6f)\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-40s %14.6g %-7s (%s is better)\n", m.Name, res.Layers[m.Name], m.Unit, m.Better)
		}
	} else {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-40s %14.6g %-7s (%s is better; may worsen by %.0f%%)\n",
				m.Name, res.E2E[m.Name], m.Unit, m.Better, m.Bound*100)
		}
	}
	for _, d := range res.Details {
		fmt.Fprintf(w, "    %-38s %14.6g %-7s n=%d\n", d.Name, d.Value, d.Unit, d.Samples)
	}
	for _, e := range res.Errs {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
}

// printEnv prints the block a reader needs to judge the numbers.
func printEnv(w io.Writer, root string, seed int64, dur time.Duration) {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	nproc := runtime.NumCPU()
	twoWorkers := "run"
	if nproc < 2 {
		twoWorkers = "skipped: nproc < 2"
	}
	fmt.Fprintln(w, "environment:")
	for _, kv := range [][2]string{
		{"commit", commit},
		{"seed", strconv.FormatInt(seed, 10)},
		{"seconds", strconv.FormatFloat(dur.Seconds(), 'g', -1, 64)},
		{"nproc", strconv.Itoa(nproc)},
		{"gomaxprocs", fmt.Sprintf("harness: 1 for daemon-echo and core-*, %d (nproc) for sim-*; targets: their own default", nproc)},
		{"go", runtime.Version()},
		{"cpu", cpuModel()},
		{"kernel", kernelRelease()},
		{"network", "host loopback interface, never a real link"},
		{"generator", "1 OS thread, 2 UDP sockets per target, closed loop, on one CPU with its target"},
		{"daemon", "-workers 1 -batch 1 (flag defaults) for every end-to-end number"},
		{"two_worker_runs", twoWorkers},
		{"samples_reported", "per metric, in the lines marked n="},
	} {
		fmt.Fprintf(w, "  %-17s %s\n", kv[0], kv[1])
	}
}

// runChild measures one workload in a process of its own, as the driver
// does. Run one after another in one process, a workload inherits the
// previous one's heap and RSS high-water mark: core-flows after core-churn
// read 328 MB for its 13, and sim-metro 1.4 for its 0.87.
func runChild(c *runCtx, name string) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(c.seed, 10),
		"--seconds", strconv.FormatFloat(c.dur.Seconds(), 'g', -1, 64), "--trace", "0")
	cmd.Dir = c.root
	cmd.Stderr = c.log
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		// No result line: the exit status says why.
		return line, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	return line, nil // failed operations exit non-zero too; the line carries them
}

// suite runs every workload untraced in the given order.
func suite(c *runCtx, order []workloadSpec) (map[string]resultLine, error) {
	out := make(map[string]resultLine)
	for _, w := range order {
		line, err := runChild(c, w.Name)
		if err != nil {
			return nil, err
		}
		out[w.Name] = line
	}
	return out, nil
}

// selfcheck runs the suite twice, the second time in reverse order, and
// fails when any end-to-end metric disagrees with itself by more than
// its bound: the noise floor is a number in the output, not a hope.
func selfcheck(c *runCtx) error {
	a, err := suite(c, workloads)
	if err != nil {
		return err
	}
	rev := slices.Clone(workloads)
	slices.Reverse(rev)
	b, err := suite(c, rev)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.log, "\nselfcheck: |A-B|/A per metric against its bound\n")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a[w.Name].Metrics[m.Name].Value, b[w.Name].Metrics[m.Name].Value
			diff := math.Abs(pctDiff(va, vb)) / 100
			verdict := "ok"
			if diff > m.Bound {
				verdict = "DISAGREES"
				bad++
			}
			fmt.Fprintf(c.log, "  %-13s %-14s A=%-12.4f B=%-12.4f diff=%5.1f%% bound=%2.0f%% %s\n",
				w.Name, m.Name, va, vb, diff*100, m.Bound*100, verdict)
		}
		if f := a[w.Name].Failed + b[w.Name].Failed; f != 0 {
			fmt.Fprintf(c.log, "  %-13s %d failed operations\n", w.Name, f)
			bad++
		}
	}
	if bad != 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound or failed", bad)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all, as a table)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 15, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceOut := fs.String("traceout", "", "Chrome trace output (default .bench_build/trace-<workload>.json)")
	self := fs.Bool("selfcheck", false, "run the suite twice and compare against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	c := newRunCtx(root, filepath.Join(root, ".bench_build"), *seed, time.Duration(*seconds*float64(time.Second)), stderr)

	switch {
	case *self:
		if err := selfcheck(c); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case *workload == "":
		all, err := suite(c, workloads)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(all); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, line := range all {
			if line.Failed != 0 {
				return 1
			}
		}
		return 0
	}

	if runners[*workload] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	printEnv(stderr, root, c.seed, c.dur)
	var res *result
	if *trace != 0 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(c.buildDir, "trace-"+*workload+".json")
		}
		res, err = runTraced(c, *workload, out)
	} else {
		res, err = runUntraced(c, *workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	report(stderr, *workload, res, *trace != 0)
	if err := json.NewEncoder(stdout).Encode(res.line(*trace != 0)); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if res.Failed != 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
