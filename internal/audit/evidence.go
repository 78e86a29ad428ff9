package audit

import (
	"sort"
	"time"

	"netneutral/internal/obs"
)

// Evidence: the causal backing for an audit conviction. The statistical
// verdict says *that* suspect traffic fared worse; the evidence trail
// says *why* — which traced hops dropped or delayed it, under which
// policy cause, and how much attributed policing delay they injected.
// Built from the flight recorder's merged trace events, the trail is as
// deterministic as the events beneath it: bit-identical at any worker
// count.

// HopEvidence aggregates one (node, cause, class) policing site's
// contribution to the measured differential.
type HopEvidence struct {
	// Node is the netem node id where the policing was observed.
	Node int32 `json:"node"`
	// Cause is the policy cause (netem.PolicyCause numbering; render
	// with obs.CauseName).
	Cause uint8 `json:"cause"`
	// Class is the adversary's traffic class, when the cause carries one.
	Class uint8 `json:"class,omitempty"`
	// Drops counts traced policy drops at this site.
	Drops uint64 `json:"drops,omitempty"`
	// Delayed counts traced events carrying policy-attributed delay.
	Delayed uint64 `json:"delayed,omitempty"`
	// PolicyDelay sums the attributed policy delay across those events.
	PolicyDelay time.Duration `json:"policy_delay_ns,omitempty"`
}

// MeanDelay is the mean attributed policy delay per delayed packet.
func (h *HopEvidence) MeanDelay() time.Duration {
	if h.Delayed == 0 {
		return 0
	}
	return h.PolicyDelay / time.Duration(h.Delayed)
}

// EvidenceTrail is the deterministic set of policing sites, ordered by
// (node, cause, class).
type EvidenceTrail []HopEvidence

// TotalDrops sums traced policy drops across the trail.
func (t EvidenceTrail) TotalDrops() uint64 {
	var n uint64
	for i := range t {
		n += t[i].Drops
	}
	return n
}

// BuildEvidence folds merged trace events into an evidence trail. Only
// events with a policy fingerprint contribute: policy drops (by kind)
// and events carrying attributed policy delay. keep, when non-nil,
// restricts the trail to flows it accepts (e.g. the audit's probe
// flows), so background traffic policed by the same adversary does not
// pollute the conviction's backing.
func BuildEvidence(events []obs.TraceRec, keep func(flow uint64) bool) EvidenceTrail {
	type site struct {
		node  int32
		cause uint8
		class uint8
	}
	agg := make(map[site]*HopEvidence)
	for i := range events {
		e := &events[i]
		drop := e.Kind == obs.KindDropPolicy
		if !drop && e.PolicyNanos == 0 {
			continue
		}
		if keep != nil && !keep(e.Flow) {
			continue
		}
		k := site{node: e.Node, cause: e.Cause, class: e.Class}
		h := agg[k]
		if h == nil {
			h = &HopEvidence{Node: e.Node, Cause: e.Cause, Class: e.Class}
			agg[k] = h
		}
		if drop {
			h.Drops++
		}
		if e.PolicyNanos > 0 {
			h.Delayed++
			h.PolicyDelay += time.Duration(e.PolicyNanos)
		}
	}
	trail := make(EvidenceTrail, 0, len(agg))
	for _, h := range agg {
		trail = append(trail, *h)
	}
	sort.Slice(trail, func(i, j int) bool {
		if trail[i].Node != trail[j].Node {
			return trail[i].Node < trail[j].Node
		}
		if trail[i].Cause != trail[j].Cause {
			return trail[i].Cause < trail[j].Cause
		}
		return trail[i].Class < trail[j].Class
	})
	return trail
}
