package audit

import (
	"fmt"

	"netneutral/internal/obs"
)

// proberMetrics is one vantage's registry wiring. Emission counters are
// written on the vantage's scheduling context and delivery counters on
// the probe target's shard — the same disjoint-writer split as the Trial
// ledger — so each stripe has a single writer and no locking.
type proberMetrics struct {
	sent      [NumRoles]*obs.Counter // payload bytes emitted (measured trials only)
	delivered [NumRoles]*obs.Counter // payload bytes delivered
	pkts      [NumRoles]*obs.Counter // probe packets delivered
}

// Instrument exports the prober's accounting as counter families on reg,
// labeled by vantage and probe role:
//
//	audit_probe_sent_bytes_total{vantage=...,role=...}
//	audit_probe_delivered_bytes_total{vantage=...,role=...}
//	audit_probe_delivered_packets_total{vantage=...,role=...}
//	audit_probe_trials_total{vantage=...}
//
// The trials family is a function of the virtual clock (completed
// measurement windows), so recorder samples taken at simulation barriers
// are deterministic. Call before Run.
func (p *Prober) Instrument(reg *obs.Registry, vantage int) {
	m := &proberMetrics{}
	for r := Role(0); r < NumRoles; r++ {
		label := fmt.Sprintf("{vantage=\"%d\",role=%q}", vantage, r.String())
		m.sent[r] = reg.Counter("audit_probe_sent_bytes_total"+label,
			"Probe payload bytes emitted inside measured trial windows.").NewStripe()
		m.delivered[r] = reg.Counter("audit_probe_delivered_bytes_total"+label,
			"Probe payload bytes delivered and attributed to a trial.").NewStripe()
		m.pkts[r] = reg.Counter("audit_probe_delivered_packets_total"+label,
			"Probe packets delivered and attributed to a trial.").NewStripe()
	}
	p.met = m
	reg.CounterFunc(fmt.Sprintf("audit_probe_trials_total{vantage=\"%d\"}", vantage),
		"Measurement trials whose window has completed.",
		p.CompletedTrials)
}

// CompletedTrials reports how many of the prober's trial windows have
// fully elapsed at the current virtual time (0 before Run).
func (p *Prober) CompletedTrials() uint64 {
	if p.start.IsZero() {
		return 0
	}
	elapsed := p.cfg.On.Now().Sub(p.start)
	if elapsed < 0 {
		return 0
	}
	n := uint64(elapsed / p.period())
	if n > uint64(p.cfg.Trials) {
		n = uint64(p.cfg.Trials)
	}
	return n
}

// VerdictMetrics tallies per-vantage audit decisions on a registry:
// audit_verdicts_total{verdict="discriminated"|"clean"}. Aggregators
// (eval's E8) call Count once per vantage verdict.
type VerdictMetrics struct {
	discriminated *obs.Counter
	clean         *obs.Counter
}

// NewVerdictMetrics registers the verdict families on reg.
func NewVerdictMetrics(reg *obs.Registry) *VerdictMetrics {
	return &VerdictMetrics{
		discriminated: reg.Counter(`audit_verdicts_total{verdict="discriminated"}`,
			"Vantage verdicts that found discrimination.").NewStripe(),
		clean: reg.Counter(`audit_verdicts_total{verdict="clean"}`,
			"Vantage verdicts that found no discrimination.").NewStripe(),
	}
}

// Count tallies one vantage's verdict.
func (m *VerdictMetrics) Count(v Verdict) {
	if v.Discriminated {
		m.discriminated.Inc()
		return
	}
	m.clean.Inc()
}
