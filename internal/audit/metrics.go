package audit

import (
	"fmt"

	"netneutral/internal/obs"
)

// Instrument exports the prober's trial ledger as counter families on
// reg, labeled by vantage and probe role:
//
//	audit_probe_sent_bytes_total{vantage=...,role=...}
//	audit_probe_delivered_bytes_total{vantage=...,role=...}
//	audit_probe_delivered_packets_total{vantage=...,role=...}
//	audit_probe_trials_total{vantage=...}
//
// Each family is read from the ledger itself (Sent, Delivered and
// DelayPkts summed over the trials) or from the virtual clock (completed
// measurement windows), so recorder samples taken at simulation barriers
// are deterministic. Call before Run.
func (p *Prober) Instrument(reg *obs.Registry, vantage int) {
	for r := Role(0); r < NumRoles; r++ {
		r := r
		label := fmt.Sprintf("{vantage=\"%d\",role=%q}", vantage, r.String())
		reg.CounterFunc("audit_probe_sent_bytes_total"+label,
			"Probe payload bytes emitted inside measured trial windows.",
			p.ledgerSum(func(t *Trial) uint64 { return t.Sent[r] }))
		reg.CounterFunc("audit_probe_delivered_bytes_total"+label,
			"Probe payload bytes delivered and attributed to a trial.",
			p.ledgerSum(func(t *Trial) uint64 { return t.Delivered[r] }))
		reg.CounterFunc("audit_probe_delivered_packets_total"+label,
			"Probe packets delivered and attributed to a trial.",
			p.ledgerSum(func(t *Trial) uint64 { return t.DelayPkts[r] }))
	}
	reg.CounterFunc(fmt.Sprintf("audit_probe_trials_total{vantage=\"%d\"}", vantage),
		"Measurement trials whose window has completed.",
		p.CompletedTrials)
}

// ledgerSum reads one Trial field summed over the prober's ledger.
func (p *Prober) ledgerSum(field func(*Trial) uint64) func() uint64 {
	return func() uint64 {
		var n uint64
		for i := range p.trials {
			n += field(&p.trials[i])
		}
		return n
	}
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

// Instrument exports the summary's per-vantage rulings on reg:
// audit_verdicts_total{verdict="discriminated"|"clean"}, counted over
// Verdicts.
func (s *Summary) Instrument(reg *obs.Registry) {
	reg.CounterFunc(`audit_verdicts_total{verdict="discriminated"}`,
		"Vantage verdicts that found discrimination.",
		func() uint64 { return s.countVerdicts(true) })
	reg.CounterFunc(`audit_verdicts_total{verdict="clean"}`,
		"Vantage verdicts that found no discrimination.",
		func() uint64 { return s.countVerdicts(false) })
}

// countVerdicts counts the verdicts whose Discriminated equals d.
func (s *Summary) countVerdicts(d bool) uint64 {
	var n uint64
	for i := range s.Verdicts {
		if s.Verdicts[i].Discriminated == d {
			n++
		}
	}
	return n
}
