// Package audit implements the active neutrality auditor: the end-host
// side of a *technical* (rather than regulatory) approach to net
// neutrality. The neutralizer (internal/core) prevents an ISP from
// discriminating by address, and the cloak (internal/cloak) by traffic
// shape — but neither tells a user whether discrimination is happening
// in the first place. This package makes discrimination *measurable*,
// in the tradition of Glasnost-style differential probing: run a
// suspect app-shaped flow and a shape-neutral control flow over the
// same path, compare their per-trial goodput and delay distributions
// with nonparametric statistics (internal/measure's Mann-Whitney U and
// Kolmogorov-Smirnov tests), and aggregate verdicts across many vantage
// points to both harden the decision against stealthy throttlers
// (partial, duty-cycled, probe-evading — internal/dpi's stealth modes)
// and localize which path segment the differential appears on.
//
// The pieces:
//
//   - Prober schedules one vantage's paired probe flows on a netem
//     simulator — long-lived interleaved flows measured in alternating
//     parallel and back-to-back windows, or naive per-trial bursts —
//     and accounts deliveries into per-trial Trial records.
//   - Report is the vantage's measurement: a copy of the Prober's
//     trial ledger, the audit's only record, which the registry
//     families (Instrument) also read. The bytes that do cross the
//     network are the probe header (PutProbePayload/ParseProbePayload,
//     fuzzed by FuzzProbePayload).
//   - Decide turns one report into a Verdict: discriminated or not,
//     with p-values, effect sizes and the measured goodput/delay gaps.
//   - Summarize aggregates verdicts across vantages into detection
//     power, an ISP-level ruling, and a path-segment localization.
//
// eval's E8 experiment (RunAudit) drives the full matrix of ISP
// behaviors against this auditor and enforces its headline numbers.
package audit

import (
	"math"

	"netneutral/internal/measure"
)

// The per-vantage decision rule's thresholds, chosen to keep the
// false-positive rate on a neutral network far below the 0.05 budget.
const (
	// alpha is the per-test significance level.
	alpha = 0.01
	// minGap is the minimum relative goodput gap (control vs suspect
	// medians) to call discrimination: statistical significance without
	// practical effect is noise at audit scale.
	minGap = 0.08
	// minDelayGap is the minimum relative delay inflation of the suspect
	// flow.
	minDelayGap = 0.25
	// minTrials is the minimum per-role sample count; thinner reports
	// are never called discriminatory.
	minTrials = 6
)

// Verdict is one vantage's decision with its full statistical support.
type Verdict struct {
	// Discriminated is true when either the goodput or the delay branch
	// of the decision rule fires.
	Discriminated bool
	// GoodputHit/DelayHit attribute the decision.
	GoodputHit, DelayHit bool

	// GoodputMW and GoodputKS test suspect vs control per-trial goodput.
	GoodputMW, GoodputKS measure.TestResult
	// TailTrials counts suspect trials that fell below every control
	// trial by the practical margin, and TailP is the exact binomial
	// probability of that many exceedances under exchangeability — the
	// branch that catches duty-cycled throttling, whose bimodal damage
	// moves rank sums too little at audit sample sizes.
	TailTrials int
	TailP      float64
	// DelayMW tests suspect vs control per-trial mean delay.
	DelayMW measure.TestResult

	// SuspectGoodput/ControlGoodput are the median per-trial goodput
	// ratios; Gap is their relative difference (positive = suspect
	// worse).
	SuspectGoodput, ControlGoodput float64
	Gap                            float64
	// SuspectDelay/ControlDelay are median per-trial mean delays in
	// seconds; DelayGap is the suspect's relative inflation.
	SuspectDelay, ControlDelay float64
	DelayGap                   float64
	// Trials is the usable per-role sample count (minimum of the two).
	Trials int
}

// Decide applies the differential decision rule to one vantage report.
// Discrimination requires BOTH statistical significance (Mann-Whitney
// or Kolmogorov-Smirnov below alpha) AND a practical effect (relative
// gap beyond minGap, in the harmful direction) — the compound rule is
// what keeps false positives near zero on a neutral path while a
// 90%-drop throttler is detected with near certainty.
func Decide(r *Report) Verdict {
	var v Verdict

	sg := r.GoodputSamples(RoleSuspect)
	cg := r.GoodputSamples(RoleControl)
	v.Trials = min(len(sg), len(cg))
	if v.Trials < minTrials {
		return v
	}
	v.SuspectGoodput = measure.Median(sg)
	v.ControlGoodput = measure.Median(cg)
	if v.ControlGoodput > 0 {
		v.Gap = (v.ControlGoodput - v.SuspectGoodput) / v.ControlGoodput
	}
	v.GoodputMW = measure.MannWhitney(sg, cg)
	v.GoodputKS = measure.KolmogorovSmirnov(sg, cg)
	medianHit := v.SuspectGoodput < v.ControlGoodput &&
		v.Gap >= minGap &&
		(v.GoodputMW.P < alpha || v.GoodputKS.P < alpha)
	v.TailTrials, v.TailP = exceedance(sg, cg, v.ControlGoodput)
	tailHit := v.TailTrials >= 2 && v.TailP < alpha
	v.GoodputHit = medianHit || tailHit

	sd := r.DelaySamples(RoleSuspect)
	cd := r.DelaySamples(RoleControl)
	if min(len(sd), len(cd)) >= minTrials {
		v.SuspectDelay = measure.Median(sd)
		v.ControlDelay = measure.Median(cd)
		if v.ControlDelay > 0 {
			v.DelayGap = (v.SuspectDelay - v.ControlDelay) / v.ControlDelay
		}
		v.DelayMW = measure.MannWhitney(sd, cd)
		v.DelayHit = v.SuspectDelay > v.ControlDelay &&
			v.DelayGap >= minDelayGap &&
			v.DelayMW.P < alpha
	}

	v.Discriminated = v.GoodputHit || v.DelayHit
	return v
}

// exceedance counts suspect trials that fell strictly below every
// control trial AND below the control median (precomputed by the
// caller) by the practical margin, and returns a binomial tail
// probability for that many exceedances: under exchangeability a
// single suspect trial undercuts all n2 control trials with marginal
// probability 1/(n2+1), and the tail treats trials as independent at
// that fixed rate. That is an approximation, not an exact conditional
// test — correlated trials (a congestion epoch spanning several
// windows) can make it anticonservative — which is why the threshold
// also demands the practical margin below the control median: shared
// noise moves both flows, and only a genuine differential drops a
// cluster of suspect trials 8% under a control that stayed high. A
// duty-cycled throttler produces exactly that cluster even when
// medians barely move.
func exceedance(suspect, control []float64, controlMedian float64) (m int, p float64) {
	if len(suspect) == 0 || len(control) == 0 {
		return 0, 1
	}
	cmin := control[0]
	for _, v := range control {
		if v < cmin {
			cmin = v
		}
	}
	thresh := math.Min(cmin, controlMedian*(1-minGap))
	for _, v := range suspect {
		if v < thresh {
			m++
		}
	}
	return m, binomTail(len(suspect), m, 1/float64(len(control)+1))
}

// binomTail is P(X >= m) for X ~ Binomial(n, p), computed directly (n
// is a trial count, never large).
func binomTail(n, m int, p float64) float64 {
	if m <= 0 {
		return 1
	}
	sum := 0.0
	for k := m; k <= n; k++ {
		sum += math.Exp(lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	if sum > 1 {
		return 1
	}
	return sum
}

func lnChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// Segment localizes where on the path a detected differential appears.
type Segment uint8

// Localization outcomes.
const (
	// SegmentNone: no discrimination detected anywhere.
	SegmentNone Segment = iota
	// SegmentBeyondBorder: only vantages whose paths cross the transit
	// network see the differential — the discriminator sits beyond the
	// supportive ISP's border.
	SegmentBeyondBorder
	// SegmentInside: inside-only paths see it too, so the differential
	// arises within the supportive ISP itself.
	SegmentInside
)

func (s Segment) String() string {
	switch s {
	case SegmentBeyondBorder:
		return "beyond-border"
	case SegmentInside:
		return "inside"
	default:
		return "none"
	}
}

// Summary is the cross-vantage aggregation of one audit.
type Summary struct {
	// Outside/Inside count vantages by path class; the Detected fields
	// count those whose verdict was discrimination.
	Outside, OutsideDetected int
	Inside, InsideDetected   int
	// Power is the outside-vantage detection fraction — the per-audit
	// detection power of the probe design against this ISP.
	Power float64
	// InsidePower is the inside-vantage detection fraction.
	InsidePower float64
	// Discriminating is the ISP-level ruling: outside detection power
	// beyond the aggregation threshold. A partial (TargetFraction)
	// throttler dilutes per-vantage power, but as long as the detected
	// fraction clears a threshold no neutral network approaches, the
	// aggregate still convicts.
	Discriminating bool
	// Localized names the path segment the differential appears on.
	Localized Segment
	// Verdicts holds each vantage's full decision, parallel to the
	// reports passed to Summarize.
	Verdicts []Verdict
	// Evidence, when tracing was attached, is the causal backing for
	// the ruling: the traced policing sites (node, cause, class) whose
	// attributed drops and delay explain the measured differential.
	Evidence EvidenceTrail
}

// DefaultAggregationThreshold is the outside detection fraction beyond
// which the aggregate rules the ISP discriminating. Neutral networks
// measure ~0 with the compound decision rule; even a 30%-targeting
// partial throttler clears it.
const DefaultAggregationThreshold = 0.25

// Summarize decides each report and aggregates across vantages against
// DefaultAggregationThreshold. An optional evidence trail (built by
// BuildEvidence from traced hop events) is attached to the summary so a
// conviction carries its causal backing.
func Summarize(reports []*Report, evidence ...EvidenceTrail) Summary {
	var s Summary
	for _, t := range evidence {
		s.Evidence = append(s.Evidence, t...)
	}
	s.Verdicts = make([]Verdict, len(reports))
	for i, r := range reports {
		v := Decide(r)
		s.Verdicts[i] = v
		if r.Inside {
			s.Inside++
			if v.Discriminated {
				s.InsideDetected++
			}
		} else {
			s.Outside++
			if v.Discriminated {
				s.OutsideDetected++
			}
		}
	}
	if s.Outside > 0 {
		s.Power = float64(s.OutsideDetected) / float64(s.Outside)
	}
	if s.Inside > 0 {
		s.InsidePower = float64(s.InsideDetected) / float64(s.Inside)
	}
	s.Discriminating = s.Power >= DefaultAggregationThreshold
	switch {
	case !s.Discriminating && s.InsidePower < DefaultAggregationThreshold:
		s.Localized = SegmentNone
	case s.InsidePower >= DefaultAggregationThreshold:
		s.Localized = SegmentInside
	default:
		s.Localized = SegmentBeyondBorder
	}
	return s
}
