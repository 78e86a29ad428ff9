// Command neutsim runs one of internal/eval's parametrised experiments
// at a chosen scale and prints its result rows: flags become the
// experiment's config, eval runs and self-enforces it (a failed verdict,
// misdelivery, classifier hit or worker-count divergence exits
// non-zero), and the rows that are a pure function of the flags go to
// stdout — so two runs with the same flags byte-diff clean, which is how
// CI replay-checks them — while rows carrying wall-clock figures go to
// stderr. With no mode flag it prints the paper's Figure 1 and Figure 2
// rows (eval.RunF1, eval.RunF2). -seed threads one seed through every
// RNG of a run; -simworkers picks how many threads execute the sharded
// engines and, by the determinism contract, never changes a result.
//
// Usage:
//
//	neutsim                                       # F1 + F2: Figure 1 and 2
//	neutsim -hosts 10000 -duration 2s -seed 7     # E6 metro (-simworkers N)
//	neutsim -hosts 1000 -trace all -traceout t.json  # metro + Perfetto trace
//	neutsim -hosts 1000 -trace 0.01 -metrics :0   # /metrics, /trace.json, pprof
//	neutsim -arms -flows 8 -duration 2s -seed 7   # E7 arms race, 8 flows/class
//	neutsim -audit -vantages 8 -trials 10 -seed 7 # E8 neutrality audit
//	neutsim -parscale -hosts 2000 -duration 500ms # E9 worker sweep 1/2/4
//	neutsim -realproto -seed 7                    # E10 real dns + net/http
//	neutsim -backbone -metros 4 -hosts 1000 -simworkers 2  # E13 backbone
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

// run is the whole command: flags to config, config to eval, rows out.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("neutsim", flag.ExitOnError)
	trace := fs.String("trace", "", "metro flow tracing spec: \"all\" records every flow, a fraction in (0,1) samples that share of flows deterministically, 0xHEX tags one flow hash, SRC-DST[/PROTO] tags one address pair")
	traceOut := fs.String("traceout", "", "write the metro run's traced spans as Chrome trace-event JSON (load in Perfetto or chrome://tracing) to this file")
	seed := fs.Int64("seed", 1, "seed threaded to every RNG (simulator, policies, jitter, identities)")
	hosts := fs.Int("hosts", 0, "run the E6 metro scenario with this many customer hosts (0 = the Figure 1 and 2 rows); customers per metro under -backbone")
	arms := fs.Bool("arms", false, "run the E7 arms-race scenario (dpi adversary vs cloaking)")
	flows := fs.Int("flows", 25, "arms race: flows per application class")
	auditFlag := fs.Bool("audit", false, "run the E8 neutrality audit (differential probing vs stealthy throttling)")
	parscale := fs.Bool("parscale", false, "run the E9 parallel-scaling sweep (worker counts 1/2/4, bit-identical outcomes enforced)")
	backbone := fs.Bool("backbone", false, "run the E13 continental backbone (-metros fan-outs of -hosts customers each through a transit core, fluid background load, identity sweep over workers 1 and -simworkers)")
	metros := fs.Int("metros", 6, "backbone: metro count")
	realproto := fs.Bool("realproto", false, "run the E10 real-protocol scenario (dns + net/http over simnet vs dpi and audit)")
	simWorkers := fs.Int("simworkers", 1, "threads executing the sharded metro/audit/backbone engine (results are identical at any value)")
	vantages := fs.Int("vantages", 12, "audit: outside vantage points (inside reference vantages scale as 1/3)")
	trials := fs.Int("trials", 12, "audit: paired measurement trials per vantage")
	duration := fs.Duration("duration", 2*time.Second, "simulated traffic duration for the metro/arms/parscale/backbone scenarios")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /metrics.json, /trace.json, /trace and /debug/pprof on this address during the metro run (\":0\" picks a port; bound address is printed)")
	metricsHold := fs.Duration("metricshold", 5*time.Second, "keep the -metrics server up this long after the run so scrapers can read the final state")
	_ = fs.Parse(args) // ExitOnError

	var res *eval.Result
	var err error
	switch {
	case *realproto:
		res, err = rows(eval.RunRealProto(eval.RealProtoConfig{Seed: *seed}))
	case *parscale:
		res, err = rows(eval.RunParScale(eval.ParScaleConfig{
			Hosts: *hosts, Seed: *seed, Duration: *duration, Workers: []int{1, 2, 4},
		}))
	case *backbone:
		sweep := []int{1}
		if *simWorkers > 1 {
			sweep = append(sweep, *simWorkers)
		}
		runs, err := eval.RunBackboneIdentity(eval.BackboneConfig{
			Metros: *metros, HostsPerMetro: *hosts, Seed: *seed, Duration: *duration, Observe: true,
		}, sweep)
		if err != nil {
			return err
		}
		res = runs[0].Result() // the sweep's first run renders all of it
	case *auditFlag:
		res, err = rows(eval.RunAudit(eval.AuditConfig{
			Vantages: *vantages, InsideVantages: max(*vantages/3, 1), Trials: *trials,
			Seed: *seed, Workers: *simWorkers,
		}))
	case *arms:
		res, err = rows(eval.RunArms(eval.ArmsConfig{FlowsPerClass: *flows, Seed: *seed, Duration: *duration}))
	case *hosts > 0:
		return runMetro(eval.MetroConfig{Hosts: *hosts, Seed: *seed, Duration: *duration, Workers: *simWorkers},
			*metricsAddr, *metricsHold, *trace, *traceOut, stdout, stderr)
	default:
		if *metricsAddr != "" || *traceOut != "" {
			return errors.New("neutsim: -metrics and -traceout require the metro scenario (-hosts N)")
		}
		for _, figure := range []func() (*eval.Result, error){eval.RunF1, eval.RunF2} {
			if res, err = figure(); err != nil {
				return err
			}
			emit(stdout, stderr, res)
		}
		return nil
	}
	if err != nil {
		return err
	}
	emit(stdout, stderr, res)
	return nil
}

// rows adapts any eval.RunX's (stats, error) pair to its result rows.
func rows[S interface{ Result() *eval.Result }](st S, err error) (*eval.Result, error) {
	if err != nil {
		return nil, err
	}
	return st.Result(), nil
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

// runMetro runs the E6 metro scenario with the observability wiring the
// flags ask for. With metricsAddr set it mounts the full export surface
// on the run's registry: a Recorder publishing a merged snapshot at
// every epoch barrier (so mid-run scrapes are barrier-consistent), an
// NDJSON streamer, a FlightRecorder, and pprof. A non-empty traceSpec
// sizes the flight recorder from the flowspec (independent of -metrics);
// traceOut then writes the assembled spans as Chrome trace-event JSON
// after the run.
func runMetro(cfg eval.MetroConfig, metricsAddr string, hold time.Duration, traceSpec, traceOut string, stdout, stderr io.Writer) error {
	var fr *obs.FlightRecorder
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
	if fr != nil || ln != nil {
		cfg.Attach = func(sim *netem.Simulator) {
			if fr == nil {
				fr = obs.NewFlightRecorder(obs.FlightConfig{})
			}
			fr.Register(sim.Metrics())
			sim.AttachFlightRecorder(fr)
			if ln == nil {
				return
			}
			rec := obs.NewRecorder(sim.Metrics())
			rec.Register()
			rec.PublishSnapshots()
			sim.OnBarrier(func(now time.Time) { rec.Tick(now.UnixNano()) })
			go func() {
				_ = http.Serve(ln, obs.NewHandler(obs.HandlerConfig{
					Source: rec, Flight: fr,
				}))
			}()
		}
	}
	res, err := rows(eval.RunMetro(cfg))
	if err != nil {
		return err
	}
	emit(stdout, stderr, res)
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

// parseFlowSpec interprets the -trace flowspec for the metro scenario:
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
