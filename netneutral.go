// Package netneutral is the public facade of the netneutral project: a
// full implementation of the neutralizer design from "A Technical
// Approach to Net Neutrality" (Yang, Tsudik, Liu — HotNets-V, 2006).
//
// The design prevents an ISP from discriminating against packets based on
// content, application type, or non-customer addresses, while leaving
// tiered (DiffServ) service intact. Its core is the neutralizer: a
// stateless service at a supportive ISP's border that hides customer
// addresses behind an anycast address, deriving every session key on the
// fly as Ks = hash(KM, nonce, srcIP).
//
// This package re-exports the main entry points; the implementation
// lives in the internal packages (see README.md "Module layout" for the
// full inventory):
//
//   - NewNeutralizer: the border service (internal/core)
//   - NewKeySchedule: the shared master-key schedule (internal/crypto/keys)
//   - NewHost: the end-host shim stack (internal/endhost)
//   - NewSimulator: the discrete-event network emulator (internal/netem)
//   - NewSimNet: virtual-time net.Conn/net.PacketConn endpoints over the
//     emulator, so real protocol stacks (net/http, blocking resolvers)
//     run unmodified inside deterministic simulations (internal/simnet)
//   - NewDPIEngine: the statistical traffic-analysis adversary (internal/dpi)
//   - NewCloakShaper: padding/timing countermeasures (internal/cloak)
//   - NewAuditProber / AuditDecide / AuditSummarize: the active
//     neutrality auditor (internal/audit)
//   - NewMetricsRegistry / NewMetricsRecorder / NewFlightRecorder /
//     NewMetricsHandler: the zero-alloc observability plane (internal/obs)
//   - Experiments / ExperimentByID: the paper-reproduction harness (internal/eval)
//
// A minimal in-process conversation:
//
//	sched := netneutral.NewKeySchedule(root, time.Now(), time.Hour)
//	neut, _ := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
//	    Schedule:   sched,
//	    Anycast:    netip.MustParseAddr("10.200.0.1"),
//	    IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
//	})
//	scratch := netneutral.NewScratch() // one per goroutine
//	outs, err := neut.ProcessScratch(scratch, pkt) // stateless; run as many replicas as you like
//
// See examples/quickstart for the conversation end to end and
// cmd/neutbench for the evaluation harness.
package netneutral

import (
	"net/http"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/cloak"
	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/dpi"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/eval"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/simnet"
)

// Neutralizer is the stateless border service (the paper's primary
// contribution). See NeutralizerConfig for construction.
type Neutralizer = core.Neutralizer

// NeutralizerConfig configures a Neutralizer.
type NeutralizerConfig = core.Config

// Outgoing is a packet a Neutralizer asks its caller to transmit.
type Outgoing = core.Outgoing

// NewNeutralizer creates a neutralizer instance. All replicas of a domain
// share the same KeySchedule, which is what makes the service anycastable
// and fault-tolerant.
func NewNeutralizer(cfg NeutralizerConfig) (*Neutralizer, error) { return core.New(cfg) }

// Scratch is per-worker reusable state for the zero-allocation
// processing path (Neutralizer.ProcessScratch). One per goroutine.
type Scratch = core.Scratch

// NewScratch creates an empty scratch; buffers grow on demand and are
// retained across Reset.
func NewScratch() *Scratch { return core.NewScratch() }

// NeutralizerPool is a sharded in-process data plane: N stateless
// Neutralizer replicas sharing one key schedule, fed by per-shard worker
// goroutines through ProcessBatch. Because session keys are recomputed
// from each packet, any replica can process any packet — the same
// property that makes the service anycastable across machines.
type NeutralizerPool = core.Pool

// NeutralizerPoolConfig configures a NeutralizerPool.
type NeutralizerPoolConfig = core.PoolConfig

// NewNeutralizerPool builds the replicas and starts the shard workers.
func NewNeutralizerPool(cfg NeutralizerPoolConfig) (*NeutralizerPool, error) {
	return core.NewPool(cfg)
}

// NeutralizerStats is a mergeable point-in-time copy of neutralizer
// counters (one replica's, or a whole pool's).
type NeutralizerStats = core.StatsSnapshot

// KeySchedule derives per-epoch master keys KM from a root secret and
// session keys Ks = hash(KM, nonce, srcIP).
type KeySchedule = keys.Schedule

// MasterKey is a 128-bit symmetric key.
type MasterKey = aesutil.Key

// NewKeySchedule creates a schedule anchored at start; epochLen <= 0
// selects the paper's hourly rotation.
func NewKeySchedule(root MasterKey, start time.Time, epochLen time.Duration) *KeySchedule {
	return keys.NewSchedule(root, start, epochLen)
}

// Host is the end-host shim stack: key setup, hidden-destination data
// packets, grant refresh, reverse-direction initiation.
type Host = endhost.Host

// HostConfig configures a Host.
type HostConfig = endhost.Config

// NewHost creates an end host.
func NewHost(cfg HostConfig) (*Host, error) { return endhost.NewHost(cfg) }

// Identity is a long-term end-to-end key pair, published via DNS
// bootstrap records.
type Identity = e2e.Identity

// NewIdentity generates an identity (bits <= 0 selects the default
// 1024-bit strength the paper suggests).
func NewIdentity(bits int) (*Identity, error) { return e2e.NewIdentity(nil, bits) }

// Simulator is the deterministic discrete-event network emulator used by
// the experiments.
type Simulator = netem.Simulator

// NewSimulator creates an emulator with a virtual clock starting at start
// and a seeded PRNG.
func NewSimulator(start time.Time, seed int64) *Simulator { return netem.NewSimulator(start, seed) }

// SimNet bridges ordinary blocking Go code onto a Simulator: sockets
// whose reads, deadlines and sleeps advance virtual time while the
// driver keeps seeded runs bit-identical. Workload goroutines are
// registered with SimNet.Go and the run is driven by SimNet.Run.
type SimNet = simnet.Net

// NewSimNet wraps a serial Simulator. The Simulator must not be stepped
// directly while the SimNet drives it.
func NewSimNet(sim *Simulator) *SimNet { return simnet.New(sim) }

// SimUDPConn is a virtual-time datagram endpoint (net.PacketConn, and
// net.Conn once connected) on a simulated node.
type SimUDPConn = simnet.UDPConn

// SimStreamConn is a virtual-time ordered byte stream (net.Conn) over
// the simulated fabric — the conn type net/http runs on in experiments.
type SimStreamConn = simnet.StreamConn

// SimStreamListener accepts SimStreamConns (net.Listener).
type SimStreamListener = simnet.StreamListener

// DPIEngine is the statistical traffic-analysis adversary: a stateful
// flow tracker, a trained application classifier, and per-class
// enforcement (token-bucket policing, probabilistic drop) compiled into
// one transit hook. It is what a discriminatory ISP deploys once
// encryption defeats its port and payload rules.
type DPIEngine = dpi.Engine

// DPIEngineConfig configures a DPIEngine.
type DPIEngineConfig = dpi.EngineConfig

// NewDPIEngine builds a statistical adversary.
func NewDPIEngine(cfg DPIEngineConfig) *DPIEngine { return dpi.NewEngine(cfg) }

// CloakShaper is the end-host countermeasure to statistical traffic
// analysis: padding to size buckets, tick-grid timing quantization, and
// optional cover traffic, with measured goodput/latency cost.
type CloakShaper = cloak.Shaper

// CloakConfig configures a CloakShaper.
type CloakConfig = cloak.Config

// CloakClock is the scheduling surface a CloakShaper runs on;
// *Simulator satisfies it.
type CloakClock = cloak.Clock

// NewCloakShaper creates a shaper emitting cloaked frames through emit.
func NewCloakShaper(cfg CloakConfig, clk CloakClock, emit func(frame []byte)) *CloakShaper {
	return cloak.NewShaper(cfg, clk, emit)
}

// AuditProber runs one vantage point's paired differential probe (an
// app-shaped suspect flow vs a shape-neutral control flow) and
// accounts per-trial goodput, delay and loss — the end-host side of
// detecting discrimination, complementing the neutralizer's prevention.
type AuditProber = audit.Prober

// AuditProberConfig configures an AuditProber.
type AuditProberConfig = audit.ProberConfig

// NewAuditProber validates the config and prepares the trial ledger;
// call Run to schedule the probe on its simulator.
func NewAuditProber(cfg AuditProberConfig) (*AuditProber, error) { return audit.NewProber(cfg) }

// AuditReport is one vantage's measurement, with a strict wire
// encoding (audit.AppendReport / audit.DecodeReport) for shipping to
// an aggregator.
type AuditReport = audit.Report

// AuditVerdict is one vantage's statistical decision.
type AuditVerdict = audit.Verdict

// AuditDecisionConfig parameterizes the per-vantage decision rule; the
// zero value gets conservative defaults.
type AuditDecisionConfig = audit.DecisionConfig

// AuditSummary is the cross-vantage aggregation: detection power, the
// ISP-level ruling, and path-segment localization.
type AuditSummary = audit.Summary

// AuditDecide applies the differential decision rule (Mann-Whitney,
// Kolmogorov-Smirnov and exceedance tests with practical-effect gates)
// to one vantage report.
func AuditDecide(r *AuditReport, cfg AuditDecisionConfig) AuditVerdict {
	return audit.Decide(r, cfg)
}

// AuditSummarize decides each report and aggregates across vantages;
// minFraction <= 0 selects the default aggregation threshold.
func AuditSummarize(reports []*AuditReport, cfg AuditDecisionConfig, minFraction float64) AuditSummary {
	return audit.Summarize(reports, cfg, minFraction)
}

// MetricsRegistry holds named counter, gauge and histogram families
// whose hot-path update is a plain increment on a cache-line-padded,
// single-writer stripe (zero allocations, no atomics on the
// deterministic sim path; atomic stripes serve concurrent writers).
// Simulator.Metrics returns the emulator's registry; neutralizerd's
// transport (internal/tunnel) fills the data plane's.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsSnapshot is a merged point-in-time view of every registered
// family.
type MetricsSnapshot = obs.Snapshot

// MetricsRecorder samples a registry into fixed-size time-series rings
// at existing synchronization points (the emulator's epoch barriers via
// Simulator.OnBarrier), so recording never perturbs a seeded run.
type MetricsRecorder = obs.Recorder

// MetricsRecorderConfig sizes a MetricsRecorder.
type MetricsRecorderConfig = obs.RecorderConfig

// NewMetricsRecorder creates a recorder over reg.
func NewMetricsRecorder(reg *MetricsRegistry, cfg MetricsRecorderConfig) *MetricsRecorder {
	return obs.NewRecorder(reg, cfg)
}

// FlightRecorder keeps bounded rings of head-sampled simulator trace
// events (attach with Simulator.AttachFlightRecorder), replacing
// unbounded trace fan-out with a fixed memory budget.
type FlightRecorder = obs.FlightRecorder

// FlightRecorderConfig sizes a FlightRecorder.
type FlightRecorderConfig = obs.FlightConfig

// NewFlightRecorder creates a flight recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder { return obs.NewFlightRecorder(cfg) }

// MetricsHandlerConfig wires the HTTP export surface (/metrics,
// /metrics.json, /trace.json, /trace, pprof).
type MetricsHandlerConfig = obs.HandlerConfig

// NewMetricsHandler builds the export mux both daemons mount behind
// their -metrics flag.
func NewMetricsHandler(cfg MetricsHandlerConfig) *http.ServeMux { return obs.NewHandler(cfg) }

// Experiment is one registered paper-reproduction unit.
type Experiment = eval.Experiment

// ExperimentResult is an experiment's paper-vs-measured row set.
type ExperimentResult = eval.Result

// Experiments returns every registered experiment (E1-E10, F1-F2, A1-A8 —
// `neutbench -list` prints the index; see README.md).
func Experiments() []Experiment { return eval.All() }

// ExperimentByID looks up an experiment by its index id (e.g. "E3").
func ExperimentByID(id string) (Experiment, bool) { return eval.ByID(id) }
