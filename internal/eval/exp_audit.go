// E8: detecting discrimination. E7 closed the enforcement arms race
// (dpi vs cloak); E8 opens the *detection* one. The paper's design
// prevents discrimination, but a technical approach to net neutrality
// also needs end hosts to prove discrimination is happening — the
// Glasnost/"verifiable neutrality" line of work. E8 runs the active
// auditor (internal/audit) against a ladder of ISP behaviors, from
// honest through blatant throttling to stealthy throttlers built to
// defeat measurement (internal/dpi's partial, duty-cycled and
// probe-evading modes), and enforces:
//
//   - detection power >= 0.9 against blatant dpi throttling, with the
//     differential correctly localized beyond the supportive ISP's
//     border (outside vantages see it, inside vantages do not);
//   - false-positive rate <= 0.05 across every audit of the neutral
//     ISP;
//   - a port-rule ISP is detected on plaintext probes and measures
//     *neutral* on encrypted ones — the paper's claim, as seen from
//     the auditor's side;
//   - probe evasion (whitelisting young flows) defeats naive
//     Glasnost-style burst probing but not long-lived interleaved
//     app-shaped probing, the experiment's headline result;
//   - partial + duty-cycled stealth dilutes per-vantage power but the
//     cross-vantage aggregate still convicts.
package eval

import (
	"fmt"
	"math"
	mathrand "math/rand"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/dpi"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

// AuditISP enumerates the audited ISP behaviors.
type AuditISP uint8

// ISP behaviors, in ascending stealth.
const (
	// ISPNeutral forwards everything: the false-positive control.
	ISPNeutral AuditISP = iota
	// ISPPortRule drops 90% of packets to the suspect app's UDP port.
	ISPPortRule
	// ISPDPI classifies flows statistically and drops 90% of the
	// suspect class — blatant throttling.
	ISPDPI
	// ISPDPIStealth adds partial targeting (60% of flows) and a 50%
	// duty cycle to the dpi throttler.
	ISPDPIStealth
	// ISPDPIEvasion adds probe evasion: flows younger than twice the
	// naive probe burst are exempt from enforcement.
	ISPDPIEvasion
	// NumAuditISPs counts the behaviors.
	NumAuditISPs
)

func (i AuditISP) String() string {
	return enumName(i, "neutral", "port-rule", "dpi", "dpi+stealth", "dpi+probe-evasion")
}

// AuditConfig parameterizes E8; the zero value gets the registered
// experiment's defaults.
type AuditConfig struct {
	// Vantages is the number of outside vantage points (default 12).
	Vantages int
	// InsideVantages is the number of vantage pairs probing entirely inside
	// the supportive ISP (default Vantages/3, at least 1): the localization lever.
	InsideVantages int
	// Trials is the number of paired measurement windows per vantage
	// (default 12).
	Trials int
	// Seed drives every RNG in the experiment.
	Seed int64
	// Workers is how many threads execute each cell's sharded engine
	// (default 1; the audit outcome — every vantage's report included —
	// is identical at every value).
	Workers int
	// Observe attaches the observability plane to every cell: the
	// engine's Recorder + FlightRecorder, each prober's counter families
	// (audit_probe_*_total) and the aggregate verdict tallies
	// (audit_verdicts_total), with the observation digest recorded in
	// AuditCell.Obs. Passive: the reports (AuditCell.Reports) stay identical.
	Observe bool
}

func (c *AuditConfig) fill() {
	orDefault(&c.Vantages, 12)
	orDefault(&c.InsideVantages, max(c.Vantages/3, 1))
	orDefault(&c.Trials, 12)
	orDefault(&c.Workers, 1)
}

// suspectPort/controlPort are the plaintext probe ports: the suspect
// imitates the targeted app down to its canonical port; the control
// rides a port no rule list flags.
var suspectPort = trafficgen.AppVoIP.Port()

const controlPort = 443

// AuditCell is one (ISP, mode, strategy) audit outcome.
type AuditCell struct {
	ISP      AuditISP
	Mode     ArmsMode
	Strategy audit.Strategy

	// Summary is the cross-vantage aggregation (power, ruling,
	// localization, per-vantage verdicts).
	Summary audit.Summary
	// Reports holds each vantage's report, outside vantages first — what
	// the aggregator ruled on. A same-seed replay must reproduce them
	// exactly.
	Reports []*audit.Report
	// SuspectGoodput/ControlGoodput are the outside vantages' median
	// per-trial goodput ratios, averaged across vantages (display).
	SuspectGoodput, ControlGoodput float64
	// Obs is the cell's observation digest (nil unless
	// AuditConfig.Observe).
	Obs *ObsDigest
}

// AuditStats is the full E8 outcome.
type AuditStats struct {
	Cfg   AuditConfig
	Cells []AuditCell
	// TrainedFlows is the calibration population behind the dpi
	// adversaries' classifier.
	TrainedFlows int
}

// Cell returns the run for an (ISP, mode, strategy) triple, or nil.
func (s *AuditStats) Cell(i AuditISP, m ArmsMode, st audit.Strategy) *AuditCell {
	for c := range s.Cells {
		if s.Cells[c].ISP == i && s.Cells[c].Mode == m && s.Cells[c].Strategy == st {
			return &s.Cells[c]
		}
	}
	return nil
}

// auditDPIDelay is the per-packet hold the dpi throttlers add on top of
// dropping: the policing delay the evidence trail must attribute, hop
// for hop, to the transit engine (the blatant-dpi power row matches it
// against the measured suspect-vs-control delay gap).
const auditDPIDelay = 5 * time.Millisecond

// auditPolicy builds the dpi enforcement for the given ISP behavior.
func auditPolicy(kind AuditISP) dpi.Policy {
	var pol dpi.Policy
	p := dpi.ClassPolicy{DropProb: 0.9, Delay: auditDPIDelay}
	switch kind {
	case ISPDPIStealth:
		p.TargetFraction = 0.6
		p.DutyPeriod = 3 * time.Second
	case ISPDPIEvasion:
		p.MinFlowPkts = 2 * audit.NaivePackets
	}
	pol[dpi.ClassVoIP] = p
	return pol
}

// runAuditCell builds one fan-out world, runs every vantage's paired
// probe, and aggregates the reports.
func runAuditCell(cfg AuditConfig, kind AuditISP, mode ArmsMode, strat audit.Strategy, cls *dpi.Classifier, salt int64) (*AuditCell, error) {
	V, I, T := cfg.Vantages, cfg.InsideVantages, cfg.Trials

	// Node plan. Outside sources: one per (vantage, role) for the
	// interleaved strategy; one per (vantage, role, trial) for naive,
	// so every burst is a fresh flow even under the shim's 3-tuple flow
	// key. Hosts: two probe targets per vantage (inside vantages after
	// outside ones), then inside probe sources on the outside plan.
	outPerPair := 1
	if strat == audit.StrategyNaive {
		outPerPair = T
	}
	nOut := V * 2 * outPerPair
	srcIdx := func(v, trial, role int) int {
		if strat == audit.StrategyNaive {
			return (v*T+trial)*2 + role
		}
		return v*2 + role
	}
	targetIdx := func(vantage, role int) int { return vantage*2 + role }
	inSrcBase := (V + I) * 2
	nHosts := inSrcBase + I*2*outPerPair

	flows := (V + I) * 2
	link := netem.LinkConfig{Delay: time.Millisecond, QueueLen: max(16*flows, 512)}
	// The fan-out is sharded — outside+transit / border / customer
	// subtree — with one edge covering every probe host, so each
	// vantage's two accounting sides (emission on the source shard,
	// delivery on the host shard) land on exactly one shard each.
	env, err := newFanoutEnv(cfg.Seed+salt, netem.FanoutSpec{
		Hosts: nHosts, Outside: nOut, HostsPerEdge: nHosts,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
		ShardSubtrees: true,
	}, mode != ModePlaintext)
	if err != nil {
		return nil, err
	}
	sim, f := env.Sim, env.Fan
	sim.SetWorkers(cfg.Workers)
	o := attachObservation(sim, cfg.Observe)

	// The audited ISP at the transit router.
	switch kind {
	case ISPPortRule:
		env.portRuleAtTransit(suspectPort)
	case ISPDPI, ISPDPIStealth, ISPDPIEvasion:
		env.dpiAtTransit(cls, auditPolicy(kind), uint64(cfg.Seed+13))
	}

	// Every probe source's send(payload): outside sources in the cell's
	// mode (per-source shim credentials when encrypted); inside probes
	// stay plain — their path never leaves the supportive ISP.
	probePort := [audit.NumRoles]uint16{audit.RoleSuspect: suspectPort, audit.RoleControl: controlPort}
	sendersFor := func(srcs []*netem.Node, firstVantage int, how ArmsMode) ([]func([]byte), error) {
		sends := make([]func([]byte), len(srcs))
		for idx, src := range srcs {
			v, role := firstVantage+idx/2/outPerPair, idx%2
			var err error
			sends[idx], err = env.flowSender(flowSpec{
				Src: src, Dst: f.HostAddr(targetIdx(v, role)), Mode: how, Port: probePort[role],
				Index: idx, Exp: 8,
			})
			if err != nil {
				return nil, err
			}
		}
		return sends, nil
	}
	outSends, err := sendersFor(f.Outside, 0, mode)
	if err != nil {
		return nil, err
	}
	inSrcs := f.Hosts[inSrcBase:]
	inSends, err := sendersFor(inSrcs, V, ModePlaintext)
	if err != nil {
		return nil, err
	}

	// With observation attached, vantage 0's probe flows are tagged so
	// the flight recorder keeps their journeys end to end: post-run, the
	// attribution invariant (hop components sum exactly to end-to-end
	// virtual delay) is enforced on those recorded spans, and the
	// policing evidence trail is folded into the summary.
	var taggedFlows map[uint64]bool
	if o != nil {
		taggedFlows = make(map[uint64]bool)
		for role := 0; role < 2; role++ {
			for t := 0; t < outPerPair; t++ {
				k, err := env.flowKey(f.Outside[srcIdx(0, t, role)].Addr(), f.HostAddr(targetIdx(0, role)), mode)
				if err != nil {
					return nil, err
				}
				flow := netem.FlowKeyHash(k)
				o.fr.Tag(flow)
				taggedFlows[flow] = true
			}
		}
	}

	// wireVantage stands up vantage vi, the n-th of its kind, probing
	// from srcs through sends. A vantage's sources share a shard (outside
	// ones shard 0, probe hosts the one customer-subtree shard), so its
	// first source anchors it; each vantage gets its own scratch buffer
	// (vantages on different shards emit concurrently).
	probers := make([]*audit.Prober, 0, V+I)
	wireVantage := func(vi, n int, srcs []*netem.Node, sends []func([]byte)) error {
		anchor := srcs[srcIdx(n, 0, 0)]
		scratch := make([]byte, 2048)
		emit := func(role audit.Role, trial int, size int) {
			if strat == audit.StrategyNaive && (trial < 0 || trial >= T) {
				return // naive bursts always carry their trial
			}
			// Unmeasured interleaved emissions (trial == NoTrial) are
			// still sent — the flow must stay alive — with NoTrial in
			// the payload so the receiver discards them; srcIdx ignores
			// the trial for the interleaved strategy's fixed sources.
			payload := scratch[:size]
			audit.PutProbePayload(payload, role, trial, anchor.NowNanos())
			sends[srcIdx(n, trial, int(role))](payload)
		}
		p, err := audit.NewProber(audit.ProberConfig{
			On:       anchor,
			Rng:      mathrand.New(mathrand.NewSource(cfg.Seed*1_000_003 + salt<<32 + int64(vi))),
			Strategy: strat,
			Trials:   T,
			Emit:     emit,
		})
		if err != nil {
			return err
		}
		if o != nil {
			p.Instrument(sim.Metrics(), vi)
		}
		probers = append(probers, p)
		for role := 0; role < 2; role++ {
			f.Hosts[targetIdx(vi, role)].SetHandler(func(now time.Time, pkt []byte) {
				if payload := deliveredPayload(pkt); payload != nil {
					p.HandleProbe(now, payload)
				}
			})
		}
		return nil
	}
	for v := 0; v < V; v++ {
		if err := wireVantage(v, v, f.Outside, outSends); err != nil {
			return nil, err
		}
	}
	// Inside vantages: host-to-host probes that never cross transit.
	for i := 0; i < I; i++ {
		if err := wireVantage(V+i, i, inSrcs, inSends); err != nil {
			return nil, err
		}
	}

	for _, p := range probers {
		p.Run()
	}
	sim.Run()

	cell := &AuditCell{ISP: kind, Mode: mode, Strategy: strat}
	for vi, p := range probers {
		cell.Reports = append(cell.Reports, p.Report(vi, vi >= V))
	}
	var evidence []audit.EvidenceTrail
	if o != nil {
		evs := o.fr.Events()
		if err := checkAttribution(evs, taggedFlows, o.fr.Evicted(), nil); err != nil {
			return nil, fmt.Errorf("eval: audit %v/%v/%v: %w", kind, mode, strat, err)
		}
		// keep == nil: every flow in the cell is probe traffic, so the
		// whole recorded event set backs the conviction.
		evidence = append(evidence, audit.BuildEvidence(evs, nil))
	}
	cell.Summary = audit.Summarize(cell.Reports, evidence...)
	for vi := 0; vi < V; vi++ {
		cell.SuspectGoodput += cell.Summary.Verdicts[vi].SuspectGoodput / float64(V)
		cell.ControlGoodput += cell.Summary.Verdicts[vi].ControlGoodput / float64(V)
	}
	if o != nil {
		// Register the aggregator's rulings before digesting so
		// FinalHash covers the audit_verdicts_total families too.
		cell.Summary.Instrument(sim.Metrics())
		cell.Obs = o.digest()
	}
	return cell, nil
}

// deliveredPayload extracts the application payload from a delivered
// packet: the UDP payload of a plaintext datagram, the shim payload of a
// neutralized one.
func deliveredPayload(pkt []byte) []byte {
	var ip wire.IPv4
	if ip.DecodeFromBytes(pkt) != nil {
		return nil
	}
	switch ip.Protocol {
	case wire.ProtoUDP:
		if len(ip.Payload()) > wire.UDPHeaderLen {
			return ip.Payload()[wire.UDPHeaderLen:]
		}
	case wire.ProtoShim:
		var sh shim.Header
		if sh.DecodeFromBytes(ip.Payload()) == nil {
			return sh.Payload()
		}
	}
	return nil
}

// RunAudit trains the dpi adversaries' classifier, sweeps the full
// (ISP x mode x strategy) matrix, and enforces the E8 verdicts.
func RunAudit(cfg AuditConfig) (*AuditStats, error) {
	cfg.fill()
	st := &AuditStats{Cfg: cfg}

	// The dpi adversaries share one classifier, trained the same way
	// E7's is.
	cls, trained, err := trainClassifier(calibrationConfig(cfg.Seed + 500))
	if err != nil {
		return nil, err
	}
	st.TrainedFlows = trained

	salt := int64(3)
	for kind := ISPNeutral; kind < NumAuditISPs; kind++ {
		for _, mode := range []ArmsMode{ModePlaintext, ModeEncrypted} {
			for _, strat := range []audit.Strategy{audit.StrategyNaive, audit.StrategyInterleaved} {
				cell, err := runAuditCell(cfg, kind, mode, strat, cls, salt)
				if err != nil {
					return nil, fmt.Errorf("eval: audit cell %v/%v/%v: %w", kind, mode, strat, err)
				}
				st.Cells = append(st.Cells, *cell)
				salt++
			}
		}
	}
	return st, st.Result().Err()
}

// FalsePositiveRate is the fraction of individual vantage audits on the
// neutral ISP (every mode, strategy and vantage class) that wrongly
// ruled discrimination.
func (s *AuditStats) FalsePositiveRate() float64 {
	audits, positives := 0, 0
	for c := range s.Cells {
		cell := &s.Cells[c]
		if cell.ISP != ISPNeutral {
			continue
		}
		audits += cell.Summary.Outside + cell.Summary.Inside
		positives += cell.Summary.OutsideDetected + cell.Summary.InsideDetected
	}
	if audits == 0 {
		return 0
	}
	return float64(positives) / float64(audits)
}

// evidenceExplains reports whether a traced conviction carries its
// causal backing: policy drops, and a policing site whose attributed mean
// delay explains, within half, the suspect-vs-control delay gap the
// convicting outside vantages measured. An untraced cell has no trail to
// check.
func (c *AuditCell) evidenceExplains() bool {
	if c.Obs == nil {
		return true
	}
	ev := c.Summary.Evidence
	var policed *audit.HopEvidence
	for i := range ev {
		if ev[i].Delayed > 0 && (policed == nil || ev[i].PolicyDelay > policed.PolicyDelay) {
			policed = &ev[i]
		}
	}
	if ev.TotalDrops() == 0 || policed == nil {
		return false
	}
	var gap float64
	var n int
	for vi := 0; vi < c.Summary.Outside; vi++ {
		if v := &c.Summary.Verdicts[vi]; v.Discriminated {
			gap += v.SuspectDelay - v.ControlDelay
			n++
		}
	}
	if n == 0 {
		return true
	}
	gap /= float64(n)
	attr := policed.MeanDelay().Seconds()
	return gap > 0 && math.Abs(gap-attr) <= 0.5*attr
}

// Result renders the detection ladder as the E8 rows.
func (st *AuditStats) Result() *Result {
	neutral := st.Cell(ISPNeutral, ModeEncrypted, audit.StrategyInterleaved)
	dpiEncInt := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	dpiPlainInt := st.Cell(ISPDPI, ModePlaintext, audit.StrategyInterleaved)
	dpiEncNaive := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyNaive)
	portPlainInt := st.Cell(ISPPortRule, ModePlaintext, audit.StrategyInterleaved)
	portEncInt := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyInterleaved)
	portEncNaive := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyNaive)
	stealthEncInt := st.Cell(ISPDPIStealth, ModeEncrypted, audit.StrategyInterleaved)
	evEncNaive := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyNaive)
	evEncInt := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyInterleaved)
	pow := func(c *AuditCell) string {
		return fmt.Sprintf("%.0f%% (%d/%d vantages)", 100*c.Summary.Power, c.Summary.OutsideDetected, c.Summary.Outside)
	}
	rows := []Row{
		{Metric: "vantages (outside + inside)", Paper: "-",
			Measured: fmt.Sprintf("%d + %d", st.Cfg.Vantages, st.Cfg.InsideVantages),
			Note:     fmt.Sprintf("%d paired trials each; dpi classifier trained on %d calibration flows", st.Cfg.Trials, st.TrainedFlows)},
		{Metric: "neutral ISP: false-positive rate", Paper: "<= 5%",
			Measured: fmt.Sprintf("%.1f%%", 100*st.FalsePositiveRate()),
			Note:     "every mode, strategy and vantage class",
			Failed:   st.FalsePositiveRate() > 0.05 || len(neutral.Summary.Evidence) != 0},
		{Metric: "port rule vs plaintext probes: power", Paper: "-",
			Measured: pow(portPlainInt), Note: "suspect rides the app's real port; rule fires; audit convicts",
			Failed: portPlainInt.Summary.Power < 0.9},
		{Metric: "port rule vs encrypted probes: power", Paper: "0 (restored)",
			Measured: pow(portEncInt), Note: "encryption removed the discrimination: the auditor confirms the paper's claim",
			Failed: portEncInt.Summary.Power > 0.05 || portEncNaive.Summary.Power > 0.05},
		{Metric: "blatant dpi throttle: power", Paper: ">= 90%",
			Measured: pow(dpiEncInt),
			Note: fmt.Sprintf("suspect goodput %.0f%% vs control %.0f%%",
				100*dpiEncInt.SuspectGoodput, 100*dpiEncInt.ControlGoodput),
			Failed: dpiEncInt.Summary.Power < 0.9 || dpiPlainInt.Summary.Power < 0.9 || !dpiEncInt.evidenceExplains()},
		{Metric: "blatant dpi: localization", Paper: "beyond border",
			Measured: dpiEncInt.Summary.Localized.String(),
			Note: fmt.Sprintf("inside vantages detected %d/%d: differential only crosses transit",
				dpiEncInt.Summary.InsideDetected, dpiEncInt.Summary.Inside),
			Failed: dpiEncInt.Summary.Localized != audit.SegmentBeyondBorder || dpiEncInt.Summary.InsideDetected != 0},
		{Metric: "blatant dpi vs naive bursts: power", Paper: "-",
			Measured: pow(dpiEncNaive), Note: "burst probing suffices against an unsophisticated throttler"},
		{Metric: "stealth dpi (60% flows, 50% duty): power", Paper: "diluted",
			Measured: pow(stealthEncInt),
			Note:     fmt.Sprintf("aggregate convicts: %v (threshold %.0f%%)", stealthEncInt.Summary.Discriminating, 100*audit.DefaultAggregationThreshold),
			Failed:   !stealthEncInt.Summary.Discriminating || stealthEncInt.Summary.Power < 0.3},
		{Metric: "probe-evading dpi vs naive bursts: power", Paper: "~0 (defeated)",
			Measured: pow(evEncNaive), Note: "young-flow whitelist lets short Glasnost-style bursts through clean",
			Failed: evEncNaive.Summary.Power > 0.1},
		{Metric: "probe-evading dpi vs interleaved probes: power", Paper: ">= 90%",
			Measured: pow(evEncInt), Note: "long-lived app-shaped flows age past the whitelist: the headline result",
			Failed: evEncInt.Summary.Power < 0.9},
	}
	return &Result{ID: "E8", Title: auditTitle, Rows: rows}
}

const auditTitle = "Neutrality audit: differential probing vs stealthy throttling"
