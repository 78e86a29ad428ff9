// Command neutsim runs internal/eval's experiments by id and prints
// their result rows: eval.All is the one table of experiments, each at
// its registered sizes and seed unless a size flag overrides them. A row
// whose paper column states a claim carries its verdict
// (eval.Row.Failed), and an experiment fails with its first failed row:
// a failed row, misdelivery, classifier hit or worker-count divergence
// exits non-zero. The rows that are a pure function of the flags go to
// stdout — so two runs with the same flags byte-diff clean, which
// TestModesPrintEvalRows checks — while rows carrying wall-clock figures
// go to stderr. -seed threads one
// seed through every RNG of a run; -simworkers picks how many threads
// execute the sharded engines and, by the determinism contract, never
// changes a result.
//
// Usage:
//
//	neutsim                                       # F1 + F2: Figure 1 and 2
//	neutsim -list                                 # experiment ids and titles
//	neutsim -exp all                              # every experiment, registered sizes
//	neutsim -exp E6 -hosts 1000 -duration 1s -seed 7      # E6 metro (-simworkers N)
//	neutsim -exp E6 -hosts 1000 -trace all -traceout t.json  # + Perfetto trace
//	neutsim -exp E6 -hosts 1000 -trace 0.01 -metrics :0   # /metrics, /trace.json, pprof profiles
//	neutsim -exp E7 -flows 16 -duration 2s -seed 7        # E7 arms race, 16 flows/class
//	neutsim -exp E8 -vantages 8 -trials 10 -seed 7        # E8 neutrality audit
//	neutsim -exp E9 -hosts 800 -duration 500ms -seed 7    # E9 worker sweep
//	neutsim -exp E10 -seed 7                              # E10 real dns + net/http
//	neutsim -exp E13 -metros 4 -hosts 1000 -simworkers 2  # E13 backbone
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"netneutral/internal/eval"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command: ids to registry entries, flags to their
// Scale, rows out.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("neutsim", flag.ExitOnError)
	exp := fs.String("exp", "F1,F2", "comma-separated experiment ids to run, or \"all\" for every one in registry order (ids: -list)")
	list := fs.Bool("list", false, "list the experiment ids and titles, and exit")
	var sc eval.Scale
	fs.Int64Var(&sc.Seed, "seed", 0, "seed threaded to every RNG (simulator, policies, jitter, identities); 0 keeps the registered seed")
	fs.IntVar(&sc.Hosts, "hosts", 0, "E6, E9: customer hosts; E13: customers per metro (0 = registered)")
	fs.IntVar(&sc.Metros, "metros", 0, "E13: metro count (0 = registered)")
	fs.IntVar(&sc.Flows, "flows", 0, "E7: flows per application class (0 = registered)")
	fs.IntVar(&sc.Vantages, "vantages", 0, "E8: outside vantage points; inside reference vantages scale as 1/3 (0 = registered)")
	fs.IntVar(&sc.Trials, "trials", 0, "E8: paired measurement trials per vantage (0 = registered)")
	fs.IntVar(&sc.Workers, "simworkers", 0, "E6, E8: threads executing the sharded engine; E13: sweep workers 1 and N (0 = registered; results are identical at any value)")
	fs.DurationVar(&sc.Duration, "duration", 0, "E6, E7, E9, E13: simulated traffic duration (0 = registered)")
	trace := fs.String("trace", "", "E6 flow tracing spec: \"all\" records every flow, a fraction in (0,1) samples that share of flows deterministically, 0xHEX tags one flow hash, SRC-DST[/PROTO] tags one address pair")
	traceOut := fs.String("traceout", "", "E6: write the traced spans as Chrome trace-event JSON (load in Perfetto or chrome://tracing) to this file")
	metricsAddr := fs.String("metrics", "", "E6: serve /metrics, /metrics.json, /trace.json and pprof's profiles under /debug/pprof/ (not its cmdline) on this address during the run (\":0\" picks a port; bound address is printed)")
	metricsHold := fs.Duration("metricshold", 5*time.Second, "E6: keep the -metrics server up this long after the run so scrapers can read the final state")
	_ = fs.Parse(args) // ExitOnError

	if *list {
		for _, e := range eval.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"seed", "hosts", "metros", "flows", "vantages", "trials", "simworkers", "duration"} {
		if set[name] && !set["exp"] {
			return fmt.Errorf("neutsim: -%s sizes an experiment: name it with -exp (ids: -list)", name)
		}
	}
	exps := eval.All()
	if *exp != "all" {
		exps = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := eval.ByID(id)
			if !ok {
				return fmt.Errorf("neutsim: unknown experiment %q (try -list)", id)
			}
			exps = append(exps, e)
		}
	}
	if !set["trace"] && !set["traceout"] && !set["metrics"] && !set["metricshold"] {
		return runAll(exps, sc, stdout, stderr)
	}
	if len(exps) != 1 || exps[0].ID != "E6" {
		return errors.New("neutsim: -trace, -traceout, -metrics and -metricshold observe the metro run: they need -exp E6")
	}
	return runMetro(exps, sc, *metricsAddr, *metricsHold, *trace, *traceOut, stdout, stderr)
}

// runAll runs each experiment at sc and prints its rows. It runs on past
// a failure, reporting each on stderr, and fails at the end.
func runAll(exps []eval.Experiment, sc eval.Scale, stdout, stderr io.Writer) error {
	failed := 0
	for _, e := range exps {
		res, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(stderr, "neutsim: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		emit(stdout, stderr, res)
	}
	if failed > 0 {
		return fmt.Errorf("neutsim: %d of %d experiment(s) failed", failed, len(exps))
	}
	return nil
}

// emit prints res as two tables: the rows that are a pure function of
// the flags on stdout, the wall-clock rows (eval.Row.Wall) on stderr.
func emit(stdout, stderr io.Writer, res *eval.Result) {
	det, wall := *res, *res
	det.Rows, wall.Rows, wall.Title = nil, nil, res.Title+" — wall clock"
	for _, r := range res.Rows {
		if r.Wall {
			wall.Rows = append(wall.Rows, r)
		} else {
			det.Rows = append(det.Rows, r)
		}
	}
	fmt.Fprintln(stdout, det.String())
	if len(wall.Rows) > 0 {
		fmt.Fprintln(stderr, wall.String())
	}
}

// runMetro runs E6 with the observability wiring the flags ask for,
// attached through eval.Scale.Attach (MetroConfig.Attach) as
// Simulator.Observe, the plane every observed experiment carries. With
// metricsAddr set it mounts the full export surface on the run's
// registry: the Recorder also publishes a merged snapshot at every epoch
// barrier (so mid-run scrapes are barrier-consistent), beside the
// FlightRecorder and pprof's profiles (obs.NewHandler serves no
// cmdline). A non-empty traceSpec sizes the flight recorder from the
// flowspec (independent of -metrics); traceOut then writes the assembled
// spans as Chrome trace-event JSON after the run.
func runMetro(e6 []eval.Experiment, sc eval.Scale, metricsAddr string, hold time.Duration, traceSpec, traceOut string, stdout, stderr io.Writer) error {
	fr := obs.NewFlightRecorder(obs.FlightConfig{})
	if traceSpec != "" {
		fcfg, tags, err := parseFlowSpec(traceSpec)
		if err != nil {
			return err
		}
		fr = obs.NewFlightRecorder(fcfg)
		for _, t := range tags {
			fr.Tag(t)
		}
	} else if traceOut != "" {
		return errors.New("neutsim: -traceout requires -trace")
	}
	var ln net.Listener
	if metricsAddr != "" {
		var err error
		if ln, err = net.Listen("tcp", metricsAddr); err != nil {
			return err
		}
		defer ln.Close() // stops the exporter goroutine below
		fmt.Fprintf(stdout, "metrics listening on http://%s/metrics\n", ln.Addr())
	}
	if traceSpec != "" || ln != nil {
		sc.Attach = func(sim *netem.Simulator) {
			rec := sim.Observe(fr)
			if ln != nil {
				rec.PublishSnapshots()
				go func() { _ = http.Serve(ln, obs.NewHandler(obs.HandlerConfig{Source: rec, Flight: fr})) }()
			}
		}
	}
	if err := runAll(e6, sc, stdout, stderr); err != nil {
		return err
	}
	if traceOut != "" {
		out, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		spans := obs.AssembleSpans(fr.Events())
		if err := obs.WriteChromeTrace(out, spans); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d flows, %d retained events written to %s (Perfetto-loadable)\n",
			len(spans), fr.Sampled()-fr.Evicted(), traceOut)
	}
	if ln != nil && hold > 0 {
		fmt.Fprintf(stdout, "metrics holding for %v (final state scrapeable)\n", hold)
		time.Sleep(hold)
	}
	return nil
}

// parseFlowSpec interprets the -trace flowspec for the E6 metro run:
//
//	all              record every event of every flow
//	0.25             flow-keyed sampling: record all events of that
//	                 deterministic fraction of flows (flow < f*2^64)
//	0xDEADBEEF       tag one flow by its 64-bit flow hash
//	10.0.0.1-10.0.1.5[/17]  tag the flow between two addresses
//	                 (IP protocol defaults to UDP)
//
// Tagged and fraction-selected flows are recorded in full, on top of
// the recorder's default 1-in-64 head sampling; the selection is a pure
// function of flow identity, so the traced set replays bit-identically
// at any -simworkers.
func parseFlowSpec(spec string) (obs.FlightConfig, []uint64, error) {
	// Tracing rings are sized generously: the spec asks for specific
	// flows end to end, so give them room before eviction clips spans.
	cfg := obs.FlightConfig{RingSize: 1 << 14}
	switch {
	case spec == "all":
		cfg.SampleFlows = 1
		return cfg, nil, nil
	case strings.HasPrefix(spec, "0x") || strings.HasPrefix(spec, "0X"):
		id, err := strconv.ParseUint(spec[2:], 16, 64)
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad flow hash: %v", spec, err)
		}
		return cfg, []uint64{id}, nil
	case strings.Contains(spec, "-"):
		pair, protoStr, hasProto := strings.Cut(spec, "/")
		proto := uint64(wire.ProtoUDP)
		if hasProto {
			var err error
			if proto, err = strconv.ParseUint(protoStr, 10, 8); err != nil {
				return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad protocol: %v", spec, err)
			}
		}
		srcStr, dstStr, _ := strings.Cut(pair, "-")
		src, err := netip.ParseAddr(srcStr)
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad source: %v", spec, err)
		}
		dst, err := netip.ParseAddr(dstStr)
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad destination: %v", spec, err)
		}
		key, err := netem.FlowKeyFrom(src, dst, uint8(proto))
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: %v", spec, err)
		}
		return cfg, []uint64{netem.FlowKeyHash(key)}, nil
	default:
		frac, err := strconv.ParseFloat(spec, 64)
		if err != nil || frac <= 0 || frac > 1 {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: want \"all\", a fraction in (0,1], 0xHEX, or SRC-DST[/PROTO]", spec)
		}
		cfg.SampleFlows = frac
		return cfg, nil, nil
	}
}
