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
	"net/netip"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/dpi"
	"netneutral/internal/isp"
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
	switch i {
	case ISPNeutral:
		return "neutral"
	case ISPPortRule:
		return "port-rule"
	case ISPDPI:
		return "dpi"
	case ISPDPIStealth:
		return "dpi+stealth"
	case ISPDPIEvasion:
		return "dpi+probe-evasion"
	default:
		return "isp?"
	}
}

// AuditConfig parameterizes E8; the zero value gets the registered
// experiment's defaults.
type AuditConfig struct {
	// Vantages is the number of outside vantage points (default 12).
	Vantages int
	// InsideVantages is the number of vantage pairs probing entirely
	// inside the supportive ISP (default 4) — the localization lever.
	InsideVantages int
	// Trials is the number of paired measurement windows per vantage
	// (default 12).
	Trials int
	// Window is the interleaved strategy's measured span per trial
	// (default 1s).
	Window time.Duration
	// NaivePackets is the naive strategy's per-burst packet count
	// (default 64).
	NaivePackets int
	// Seed drives every RNG in the experiment.
	Seed int64
	// Workers is how many threads execute each cell's sharded engine
	// (default 1; the audit outcome — report wire bytes included — is
	// bit-identical at every value).
	Workers int
	// Observe attaches the observability plane to every cell: the
	// engine's Recorder + FlightRecorder, each prober's counter families
	// (audit_probe_*_total) and the aggregate verdict tallies
	// (audit_verdicts_total), with the observation digest recorded in
	// AuditCell.Obs. Passive: report wire bytes stay bit-identical.
	Observe bool
}

func (c *AuditConfig) fill() {
	if c.Vantages <= 0 {
		c.Vantages = 12
	}
	if c.InsideVantages <= 0 {
		c.InsideVantages = 4
	}
	if c.Trials <= 0 {
		c.Trials = 12
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.NaivePackets <= 0 {
		c.NaivePackets = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
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
	// ReportWire holds each vantage's wire-encoded report, outside
	// vantages first — the bytes the aggregator decoded. A replay with
	// the same seed must reproduce them bit-identically.
	ReportWire [][]byte
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
// for hop, to the transit engine (verifyAudit matches it against the
// measured suspect-vs-control delay gap).
const auditDPIDelay = 5 * time.Millisecond

// auditPolicy builds the dpi enforcement for the given ISP behavior.
func auditPolicy(kind AuditISP, naivePkts int) dpi.Policy {
	var pol dpi.Policy
	p := dpi.ClassPolicy{DropProb: 0.9, Delay: auditDPIDelay}
	switch kind {
	case ISPDPIStealth:
		p.TargetFraction = 0.6
		p.DutyPeriod = 3 * time.Second
		p.DutyOn = 1500 * time.Millisecond
	case ISPDPIEvasion:
		p.MinFlowPkts = uint64(2 * naivePkts)
	}
	pol[dpi.ClassVoIP] = p
	return pol
}

// runAuditCell builds one fan-out world, runs every vantage's paired
// probe, and aggregates the wire-encoded reports.
func runAuditCell(cfg AuditConfig, kind AuditISP, mode ArmsMode, strat audit.Strategy, cls *dpi.Classifier, salt int64) (*AuditCell, error) {
	V, I, T := cfg.Vantages, cfg.InsideVantages, cfg.Trials

	// Node plan. Outside sources: one per (vantage, role) for the
	// interleaved strategy; one per (vantage, role, trial) for naive,
	// so every burst is a fresh flow even under the shim's 3-tuple flow
	// key. Hosts: probe targets for outside and inside vantages, then
	// inside probe sources on the same plan.
	outPerPair := 1
	if strat == audit.StrategyNaive {
		outPerPair = T
	}
	nOut := V * 2 * outPerPair
	outIdx := func(v, trial, role int) int {
		if strat == audit.StrategyNaive {
			return (v*T+trial)*2 + role
		}
		return v*2 + role
	}
	targetIdx := func(v, role int) int { return v*2 + role }         // outside targets
	inTargetIdx := func(i, role int) int { return V*2 + i*2 + role } // inside targets
	inSrcBase := V*2 + I*2                                           // inside sources
	inSrcIdx := func(i, trial, role int) int {
		if strat == audit.StrategyNaive {
			return inSrcBase + (i*T+trial)*2 + role
		}
		return inSrcBase + i*2 + role
	}
	nHosts := inSrcBase + I*2*outPerPair

	flows := (V + I) * 2
	qlen := 16 * flows
	if qlen < 512 {
		qlen = 512
	}
	link := netem.LinkConfig{Delay: time.Millisecond, QueueLen: qlen}
	// The fan-out is sharded — outside+transit / border / customer
	// subtree — with one edge covering every probe host, so each
	// vantage's two accounting sides (emission on the source shard,
	// delivery on the host shard) land on exactly one shard each.
	env, err := newFanoutEnv(cfg.Seed+salt, netem.FanoutSpec{
		Hosts: nHosts, Outside: nOut, HostsPerEdge: nHosts,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
		ShardSubtrees: true,
	})
	if err != nil {
		return nil, err
	}
	sim, f := env.Sim, env.Fan
	sim.SetWorkers(cfg.Workers)
	var o *observation
	if cfg.Observe {
		o = attachObservation(sim)
	}
	if mode != ModePlaintext {
		if err := env.attachNeutralizer(); err != nil {
			return nil, err
		}
	}

	// The audited ISP at the transit router.
	switch kind {
	case ISPPortRule:
		f.Transit.AddTransitHook(isp.NewPolicy(
			mathrand.New(mathrand.NewSource(cfg.Seed+salt+101)), isp.Rule{
				Name:   "target-suspect-port",
				Match:  isp.MatchUDPPort(suspectPort),
				Action: isp.Action{DropProb: 0.9},
			}).Hook())
	case ISPDPI, ISPDPIStealth, ISPDPIEvasion:
		engine := dpi.NewEngine(dpi.EngineConfig{
			Table:       dpi.Config{Classifier: cls, MinPackets: 8, ReclassifyEvery: 8},
			Policy:      auditPolicy(kind, cfg.NaivePackets),
			Rng:         mathrand.New(mathrand.NewSource(cfg.Seed + salt + 77)),
			StealthSeed: uint64(cfg.Seed + 13),
		})
		f.Transit.AddTransitHook(engine.Hook())
	}

	// Per-source shim credentials for encrypted probes (outside
	// sources only; inside probes stay plain — their path never leaves
	// the supportive ISP).
	type cred struct {
		sh  shim.Header
		dst netip.Addr
	}
	var creds []cred
	if mode != ModePlaintext {
		creds = make([]cred, nOut)
		for idx := 0; idx < nOut; idx++ {
			var v, role int
			if strat == audit.StrategyNaive {
				v, role = idx/2/T, idx%2
			} else {
				v, role = idx/2, idx%2
			}
			src := f.Outside[idx]
			dst := f.HostAddr(targetIdx(v, role))
			var nonce keys.Nonce
			nonce[0], nonce[1], nonce[7] = byte(idx>>8), byte(idx), 0xE8
			sh, err := env.shimCred(src.Addr(), dst, nonce, [8]byte{byte(idx), byte(idx >> 8), 0xA8}, 0)
			if err != nil {
				return nil, err
			}
			creds[idx] = cred{sh: sh, dst: dst}
		}
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
				src := f.Outside[outIdx(0, t, role)].Addr()
				dst, proto := f.HostAddr(targetIdx(0, role)), uint8(wire.ProtoUDP)
				if mode != ModePlaintext {
					dst, proto = f.Spec.Anycast, wire.ProtoShim
				}
				k, err := netem.FlowKeyFrom(src, dst, proto)
				if err != nil {
					return nil, err
				}
				flow := netem.FlowKeyHash(k)
				o.fr.Tag(flow)
				taggedFlows[flow] = true
			}
		}
	}

	probers := make([]*audit.Prober, 0, V+I)
	probePort := func(role audit.Role) uint16 {
		if role == audit.RoleSuspect {
			return suspectPort
		}
		return controlPort
	}

	// Outside vantages. Every outside source lives on shard 0, so one
	// outside node anchors the whole vantage; each vantage gets its own
	// scratch buffer (vantages on different shards emit concurrently).
	for v := 0; v < V; v++ {
		vantage := v
		anchor := f.Outside[outIdx(v, 0, 0)]
		scratch := make([]byte, 2048)
		var p *audit.Prober
		emit := func(role audit.Role, trial int, size int) {
			if strat == audit.StrategyNaive && (trial < 0 || trial >= T) {
				return // naive bursts always carry their trial
			}
			// Unmeasured interleaved emissions (trial == NoTrial) are
			// still sent — the flow must stay alive — with NoTrial in
			// the payload so the receiver discards them; outIdx ignores
			// the trial for the interleaved strategy's fixed sources.
			payload := scratch[:size]
			audit.PutProbePayload(payload, role, trial, anchor.NowNanos())
			idx := outIdx(vantage, trial, int(role))
			src := f.Outside[idx]
			if mode == ModePlaintext {
				_ = src.Send(buildProbeUDP(src.Addr(), f.HostAddr(targetIdx(vantage, int(role))), probePort(role), payload))
				return
			}
			c := &creds[idx]
			pkt, err := shim.BuildPacket(src.Addr(), f.Spec.Anycast, 0, &c.sh, payload)
			if err != nil {
				return
			}
			_ = src.Send(pkt)
		}
		p, err = audit.NewProber(audit.ProberConfig{
			On:           anchor,
			Rng:          mathrand.New(mathrand.NewSource(cfg.Seed*1_000_003 + salt<<32 + int64(v))),
			Strategy:     strat,
			Trials:       T,
			Window:       cfg.Window,
			NaivePackets: cfg.NaivePackets,
			Suspect:      trafficgen.AppVoIP,
			Emit:         emit,
		})
		if err != nil {
			return nil, err
		}
		if o != nil {
			p.Instrument(sim.Metrics(), v)
		}
		probers = append(probers, p)
		for role := 0; role < 2; role++ {
			prober := p
			f.Hosts[targetIdx(v, role)].SetHandler(func(now time.Time, pkt []byte) {
				if payload := deliveredPayload(pkt); payload != nil {
					prober.HandleProbe(now, payload)
				}
			})
		}
	}

	// Inside vantages: host-to-host probes that never cross transit.
	// Anchored to the source host — every probe host shares the single
	// customer-subtree shard.
	for i := 0; i < I; i++ {
		vantage := i
		anchor := f.Hosts[inSrcIdx(i, 0, 0)]
		scratch := make([]byte, 2048)
		var p *audit.Prober
		emit := func(role audit.Role, trial int, size int) {
			if strat == audit.StrategyNaive && (trial < 0 || trial >= T) {
				return
			}
			payload := scratch[:size]
			audit.PutProbePayload(payload, role, trial, anchor.NowNanos())
			src := f.Hosts[inSrcIdx(vantage, trial, int(role))]
			dst := f.HostAddr(inTargetIdx(vantage, int(role)))
			_ = src.Send(buildProbeUDP(src.Addr(), dst, probePort(role), payload))
		}
		p, err = audit.NewProber(audit.ProberConfig{
			On:           anchor,
			Rng:          mathrand.New(mathrand.NewSource(cfg.Seed*1_000_003 + salt<<32 + int64(V+i))),
			Strategy:     strat,
			Trials:       T,
			Window:       cfg.Window,
			NaivePackets: cfg.NaivePackets,
			Suspect:      trafficgen.AppVoIP,
			Emit:         emit,
		})
		if err != nil {
			return nil, err
		}
		if o != nil {
			p.Instrument(sim.Metrics(), V+i)
		}
		probers = append(probers, p)
		for role := 0; role < 2; role++ {
			prober := p
			f.Hosts[inTargetIdx(i, role)].SetHandler(func(now time.Time, pkt []byte) {
				if payload := deliveredPayload(pkt); payload != nil {
					prober.HandleProbe(now, payload)
				}
			})
		}
	}

	for _, p := range probers {
		p.Run()
	}
	sim.Run()

	// Each vantage ships its report over the wire; the aggregator
	// decodes and rules. The encode/decode pair is load-bearing: it is
	// the surface FuzzAuditReport hardens.
	cell := &AuditCell{ISP: kind, Mode: mode, Strategy: strat}
	reports := make([]*audit.Report, 0, V+I)
	for vi, p := range probers {
		wireB, err := audit.AppendReport(nil, p.Report(vi, vi >= V))
		if err != nil {
			return nil, fmt.Errorf("eval: audit report encode: %w", err)
		}
		cell.ReportWire = append(cell.ReportWire, wireB)
		r, err := audit.DecodeReport(wireB)
		if err != nil {
			return nil, fmt.Errorf("eval: audit report decode: %w", err)
		}
		reports = append(reports, r)
	}
	var evidence []audit.EvidenceTrail
	if o != nil {
		evs := o.fr.Events()
		if err := checkAttribution(evs, taggedFlows, o.fr.Evicted()); err != nil {
			return nil, fmt.Errorf("eval: audit %v/%v/%v: %w", kind, mode, strat, err)
		}
		// keep == nil: every flow in the cell is probe traffic, so the
		// whole recorded event set backs the conviction.
		evidence = append(evidence, audit.BuildEvidence(evs, nil))
	}
	cell.Summary = audit.Summarize(reports, audit.DecisionConfig{}, 0, evidence...)
	for vi := 0; vi < V; vi++ {
		cell.SuspectGoodput += cell.Summary.Verdicts[vi].SuspectGoodput / float64(V)
		cell.ControlGoodput += cell.Summary.Verdicts[vi].ControlGoodput / float64(V)
	}
	if o != nil {
		// Tally the aggregator's rulings before digesting so FinalHash
		// covers the audit_verdicts_total families too.
		vm := audit.NewVerdictMetrics(sim.Metrics())
		for _, v := range cell.Summary.Verdicts {
			vm.Count(v)
		}
		d := o.digest()
		cell.Obs = &d
	}
	return cell, nil
}

// buildProbeUDP serializes a plaintext probe packet carrying payload.
func buildProbeUDP(src, dst netip.Addr, dport uint16, payload []byte) []byte {
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: 40000, DstPort: dport},
	); err != nil {
		return nil
	}
	return buf.Bytes()
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
	// E7's is: a passive labeled calibration run of encrypted
	// app-shaped flows.
	samples, _, err := armsSamples(ArmsConfig{FlowsPerClass: 8, Seed: cfg.Seed + 500, Duration: 2 * time.Second}, ModeEncrypted, 1)
	if err != nil {
		return nil, err
	}
	st.TrainedFlows = len(samples)
	cls, err := dpi.Train(samples)
	if err != nil {
		return nil, fmt.Errorf("eval: audit calibration: %w", err)
	}

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
	return st, verifyAudit(st)
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

// verifyAudit asserts the E8 contract; a violated verdict is an
// experiment failure, the same discipline E6/E7 use.
func verifyAudit(st *AuditStats) error {
	type check struct {
		ok  bool
		msg string
	}
	fpr := st.FalsePositiveRate()
	dpiEncInt := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	dpiPlainInt := st.Cell(ISPDPI, ModePlaintext, audit.StrategyInterleaved)
	portPlainInt := st.Cell(ISPPortRule, ModePlaintext, audit.StrategyInterleaved)
	portEncInt := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyInterleaved)
	portEncNaive := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyNaive)
	stealthEncInt := st.Cell(ISPDPIStealth, ModeEncrypted, audit.StrategyInterleaved)
	evEncNaive := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyNaive)
	evEncInt := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyInterleaved)
	checks := []check{
		{fpr <= 0.05,
			fmt.Sprintf("neutral ISP false-positive rate %.3f, want <= 0.05", fpr)},
		{dpiEncInt.Summary.Power >= 0.9,
			fmt.Sprintf("blatant dpi vs encrypted interleaved probes: power %.2f, want >= 0.90", dpiEncInt.Summary.Power)},
		{dpiPlainInt.Summary.Power >= 0.9,
			fmt.Sprintf("blatant dpi vs plaintext interleaved probes: power %.2f, want >= 0.90", dpiPlainInt.Summary.Power)},
		{dpiEncInt.Summary.Localized == audit.SegmentBeyondBorder && dpiEncInt.Summary.InsideDetected == 0,
			fmt.Sprintf("blatant dpi localization: %v (inside detected %d), want beyond-border with clean inside paths",
				dpiEncInt.Summary.Localized, dpiEncInt.Summary.InsideDetected)},
		{portPlainInt.Summary.Power >= 0.9,
			fmt.Sprintf("port rule vs plaintext probes: power %.2f, want >= 0.90", portPlainInt.Summary.Power)},
		{portEncInt.Summary.Power <= 0.05 && portEncNaive.Summary.Power <= 0.05,
			fmt.Sprintf("port rule vs encrypted probes: power %.2f/%.2f, want ~0 (encryption restored neutrality — the paper's claim, audited)",
				portEncInt.Summary.Power, portEncNaive.Summary.Power)},
		{stealthEncInt.Summary.Discriminating,
			fmt.Sprintf("stealth dpi (60%% of flows, 50%% duty): aggregate did not convict (power %.2f)", stealthEncInt.Summary.Power)},
		{stealthEncInt.Summary.Power >= 0.3,
			fmt.Sprintf("stealth dpi: power %.2f, want >= 0.30 despite dilution", stealthEncInt.Summary.Power)},
		{evEncNaive.Summary.Power <= 0.1,
			fmt.Sprintf("probe-evading dpi vs naive bursts: power %.2f, want <= 0.10 (evasion defeats naive probing)", evEncNaive.Summary.Power)},
		{evEncInt.Summary.Power >= 0.9,
			fmt.Sprintf("probe-evading dpi vs interleaved probes: power %.2f, want >= 0.90 (long-lived app-shaped flows age past the whitelist)", evEncInt.Summary.Power)},
	}
	// With tracing attached, a conviction must carry its causal backing:
	// a non-empty evidence trail whose attributed policing delay matches
	// the delay gap the probes measured, while the neutral ISP's trail
	// stays empty.
	if dpiEncInt.Obs != nil {
		ev := dpiEncInt.Summary.Evidence
		var policed *audit.HopEvidence
		for i := range ev {
			if ev[i].Delayed > 0 && (policed == nil || ev[i].PolicyDelay > policed.PolicyDelay) {
				policed = &ev[i]
			}
		}
		checks = append(checks,
			check{len(ev) > 0 && ev.TotalDrops() > 0,
				fmt.Sprintf("blatant dpi conviction carries no drop evidence (%d sites, %d drops)", len(ev), ev.TotalDrops())},
			check{policed != nil,
				"blatant dpi conviction carries no policing-delay evidence"})
		var gap float64
		var n int
		for vi := 0; vi < dpiEncInt.Summary.Outside; vi++ {
			if v := &dpiEncInt.Summary.Verdicts[vi]; v.Discriminated {
				gap += v.SuspectDelay - v.ControlDelay
				n++
			}
		}
		if policed != nil && n > 0 {
			gap /= float64(n)
			attr := policed.MeanDelay().Seconds()
			checks = append(checks, check{gap > 0 && math.Abs(gap-attr) <= 0.5*attr,
				fmt.Sprintf("attributed policing delay %.1fms does not explain measured delay gap %.1fms",
					1e3*attr, 1e3*gap)})
		}
		if neutral := st.Cell(ISPNeutral, ModeEncrypted, audit.StrategyInterleaved); neutral != nil {
			checks = append(checks, check{len(neutral.Summary.Evidence) == 0,
				fmt.Sprintf("neutral ISP produced policing evidence (%d sites)", len(neutral.Summary.Evidence))})
		}
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("eval: audit: %s", c.msg)
		}
	}
	return nil
}

// RunE8 is the registered neutrality-audit experiment.
func RunE8() (*Result, error) {
	st, err := RunAudit(AuditConfig{Seed: 8})
	if err != nil {
		return nil, err
	}
	return st.Result(), nil
}

// Result renders the detection ladder as the E8 rows.
func (st *AuditStats) Result() *Result {
	dpiEncInt := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	dpiEncNaive := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyNaive)
	portPlainInt := st.Cell(ISPPortRule, ModePlaintext, audit.StrategyInterleaved)
	portEncInt := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyInterleaved)
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
			Note:     "every mode, strategy and vantage class"},
		{Metric: "port rule vs plaintext probes: power", Paper: "-",
			Measured: pow(portPlainInt), Note: "suspect rides the app's real port; rule fires; audit convicts"},
		{Metric: "port rule vs encrypted probes: power", Paper: "0 (restored)",
			Measured: pow(portEncInt), Note: "encryption removed the discrimination: the auditor confirms the paper's claim"},
		{Metric: "blatant dpi throttle: power", Paper: ">= 90%",
			Measured: pow(dpiEncInt),
			Note: fmt.Sprintf("suspect goodput %.0f%% vs control %.0f%%",
				100*dpiEncInt.SuspectGoodput, 100*dpiEncInt.ControlGoodput)},
		{Metric: "blatant dpi: localization", Paper: "beyond border",
			Measured: dpiEncInt.Summary.Localized.String(),
			Note: fmt.Sprintf("inside vantages detected %d/%d: differential only crosses transit",
				dpiEncInt.Summary.InsideDetected, dpiEncInt.Summary.Inside)},
		{Metric: "blatant dpi vs naive bursts: power", Paper: "-",
			Measured: pow(dpiEncNaive), Note: "burst probing suffices against an unsophisticated throttler"},
		{Metric: "stealth dpi (60% flows, 50% duty): power", Paper: "diluted",
			Measured: pow(stealthEncInt),
			Note:     fmt.Sprintf("aggregate convicts: %v (threshold %.0f%%)", stealthEncInt.Summary.Discriminating, 100*audit.DefaultAggregationThreshold)},
		{Metric: "probe-evading dpi vs naive bursts: power", Paper: "~0 (defeated)",
			Measured: pow(evEncNaive), Note: "young-flow whitelist lets short Glasnost-style bursts through clean"},
		{Metric: "probe-evading dpi vs interleaved probes: power", Paper: ">= 90%",
			Measured: pow(evEncInt), Note: "long-lived app-shaped flows age past the whitelist: the headline result"},
	}
	return &Result{ID: "E8", Title: auditTitle, Rows: rows}
}

const auditTitle = "Neutrality audit: differential probing vs stealthy throttling"

// AuditBench is the fixture behind BenchmarkAuditTrial: one reduced E8
// run's measured detection power (blatant dpi, encrypted interleaved
// probes) and neutral-ISP false-positive rate — the numbers the
// benchmark reports as "power" and "fpr" — plus one blatant-dpi vantage
// report for the per-decision benchmark op.
type AuditBench struct {
	// Power is detection power against blatant dpi throttling.
	Power float64
	// FPR is the neutral-ISP false-positive rate.
	FPR float64
	// Report is one outside vantage's decoded report from the blatant
	// dpi cell.
	Report *audit.Report
}

// NewAuditBench runs the reduced audit matrix once and extracts the
// fixture.
func NewAuditBench() (*AuditBench, error) {
	st, err := RunAudit(AuditConfig{Seed: 7, Vantages: 8, InsideVantages: 2, Trials: 10})
	if err != nil {
		return nil, err
	}
	cell := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	// Pick a vantage that was actually ruled discriminated: the E8
	// contract guarantees power >= 0.9, not that vantage 0 detected.
	idx := 0
	for v := range cell.Summary.Verdicts {
		if cell.Summary.Verdicts[v].Discriminated {
			idx = v
			break
		}
	}
	r, err := audit.DecodeReport(cell.ReportWire[idx])
	if err != nil {
		return nil, err
	}
	return &AuditBench{Power: cell.Summary.Power, FPR: st.FalsePositiveRate(), Report: r}, nil
}
