package audit

import "encoding/binary"

// Role labels the two flows of a paired probe.
type Role uint8

// Probe roles.
const (
	// RoleSuspect is the app-shaped flow the audited ISP might target.
	RoleSuspect Role = iota
	// RoleControl is the shape-neutral flow on the same path.
	RoleControl
	// NumRoles sizes per-role arrays.
	NumRoles
)

func (r Role) String() string {
	switch r {
	case RoleSuspect:
		return "suspect"
	case RoleControl:
		return "control"
	default:
		return "role?"
	}
}

// Strategy selects how trials are laid out in time.
type Strategy uint8

// Probe strategies.
const (
	// StrategyNaive runs each trial as a fresh pair of short-lived
	// flows, suspect burst then control burst back-to-back — the
	// Glasnost-style test an ISP can defeat by whitelisting young flows.
	StrategyNaive Strategy = iota
	// StrategyInterleaved keeps one long-lived suspect flow and one
	// long-lived control flow running across all trials, measured in
	// alternating parallel and back-to-back windows: the flows age into
	// any probe-evasion threshold and sample every duty phase.
	StrategyInterleaved
)

func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyInterleaved:
		return "interleaved"
	default:
		return "strategy?"
	}
}

// NoTrial marks an emission outside any measured trial window (flow
// warm-up, inter-trial gaps, the unmeasured half of a back-to-back
// window). Deliveries tagged with it are not counted.
const NoTrial = 0xFFFF

// Trial is one paired measurement window's accounting, per role.
type Trial struct {
	// Sent and Delivered count application payload bytes.
	Sent, Delivered [NumRoles]uint64
	// DelaySum accumulates one-way delivery delay in nanoseconds over
	// DelayPkts delivered probe packets.
	DelaySum  [NumRoles]int64
	DelayPkts [NumRoles]uint64
}

// Report is one vantage point's complete audit measurement: a copy of
// its Prober's trial ledger, handed to the cross-vantage aggregator.
type Report struct {
	// Vantage identifies the measuring vantage point.
	Vantage uint16
	// Inside marks vantages whose probe path stays inside the
	// supportive ISP (never crossing the transit network) — the
	// aggregator's lever for localizing a differential.
	Inside   bool
	Strategy Strategy
	Trials   []Trial
}

// GoodputSamples returns the per-trial goodput ratio (delivered/sent
// payload bytes) for the role, skipping trials where nothing was sent.
func (r *Report) GoodputSamples(role Role) []float64 {
	out := make([]float64, 0, len(r.Trials))
	for i := range r.Trials {
		if s := r.Trials[i].Sent[role]; s > 0 {
			out = append(out, float64(r.Trials[i].Delivered[role])/float64(s))
		}
	}
	return out
}

// DelaySamples returns the per-trial mean one-way delay in seconds for
// the role, skipping trials with no delivered packets.
func (r *Report) DelaySamples(role Role) []float64 {
	out := make([]float64, 0, len(r.Trials))
	for i := range r.Trials {
		if n := r.Trials[i].DelayPkts[role]; n > 0 {
			out = append(out, float64(r.Trials[i].DelaySum[role])/float64(n)/1e9)
		}
	}
	return out
}

// MaxReportTrials caps ProberConfig.Trials: a trial index rides the
// probe payload as a u16 with NoTrial (0xFFFF) reserved, and the cap
// bounds neutsim's -trials flag.
const MaxReportTrials = 4096

// ---- probe payload ------------------------------------------------------

// ProbeHeaderLen is the in-payload probe header: role u8, trial u16,
// send-time i64 nanoseconds (little-endian). Every probe payload the
// auditor emits starts with it; the receiving vantage agent parses it
// to attribute the delivery to (role, trial) and measure one-way delay.
const ProbeHeaderLen = 11

// PutProbePayload writes the probe header into b (len(b) must be at
// least ProbeHeaderLen; probe payloads are always larger).
func PutProbePayload(b []byte, role Role, trial int, sentNanos int64) {
	b[0] = byte(role)
	binary.LittleEndian.PutUint16(b[1:3], uint16(trial))
	binary.LittleEndian.PutUint64(b[3:11], uint64(sentNanos))
}

// ParseProbePayload reads a probe header; ok is false for payloads too
// short or with an unknown role.
func ParseProbePayload(b []byte) (role Role, trial int, sentNanos int64, ok bool) {
	if len(b) < ProbeHeaderLen || Role(b[0]) >= NumRoles {
		return 0, 0, 0, false
	}
	role = Role(b[0])
	trial = int(binary.LittleEndian.Uint16(b[1:3]))
	sentNanos = int64(binary.LittleEndian.Uint64(b[3:11]))
	return role, trial, sentNanos, true
}
