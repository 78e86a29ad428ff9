package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span assembly: stitch the flight recorder's merged TraceRecs into
// per-packet journeys and per-flow spans, and export them as Chrome
// trace-event JSON (Perfetto loads it directly). Assembly is
// pure bookkeeping over the already-deterministic event set, so spans —
// like the events beneath them — are bit-identical at any worker count.

// Trace kind numbering. obs owns the numbers and the names; netem
// defines its TraceKind constants from these. KindSend opens a journey,
// KindDeliver closes it, kinds >= KindDropQueue end it in a drop.
const (
	KindSend uint8 = iota + 1
	KindForward
	KindDeliver
	KindDropQueue
	KindDropPolicy
	KindDropNoRoute
	KindDropTTL
)

// Policy cause numbering (netem.PolicyCause is defined from these): the
// mechanism behind a policy verdict or drop.
const (
	CauseNone        uint8 = iota
	CauseRule              // rule-list match (package isp)
	CauseTokenBucket       // per-class rate policing (package dpi)
	CauseRandomDrop        // probabilistic per-class drop (package dpi)
	CauseClassDelay        // per-class added delay (package dpi)
	CauseQueueFull         // link egress queue overflow
)

var kindNames = map[uint8]string{
	KindSend:        "send",
	KindForward:     "forward",
	KindDeliver:     "deliver",
	KindDropQueue:   "drop-queue",
	KindDropPolicy:  "drop-policy",
	KindDropNoRoute: "drop-noroute",
	KindDropTTL:     "drop-ttl",
}

var causeNames = map[uint8]string{
	CauseNone:        "none",
	CauseRule:        "rule",
	CauseTokenBucket: "token-bucket",
	CauseRandomDrop:  "random-drop",
	CauseClassDelay:  "class-delay",
	CauseQueueFull:   "queue-full",
}

// KindName renders a trace kind for exports and diagnostics.
func KindName(k uint8) string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("trace(%d)", k)
}

// CauseName renders a policy cause.
func CauseName(c uint8) string {
	if n, ok := causeNames[c]; ok {
		return n
	}
	return fmt.Sprintf("cause(%d)", c)
}

// Journey is one packet's recorded path: the hop events sharing a
// journey id, in the merged (time, shard, seq) order.
type Journey struct {
	Flow uint64
	ID   uint64
	Hops []TraceRec
}

// Complete reports whether the journey was recorded end to end: it
// opens with the send event and closes with a delivery or a drop. Only
// complete journeys satisfy the attribution-sum invariant — a ring
// eviction that clips the head leaves a partial journey.
func (j *Journey) Complete() bool {
	if len(j.Hops) == 0 || j.Hops[0].Kind != KindSend {
		return false
	}
	last := j.Hops[len(j.Hops)-1].Kind
	return last == KindDeliver || last >= KindDropQueue
}

// AttrSumNanos sums the attributed delay components over every hop.
// For a complete journey this equals EndToEndNanos exactly.
func (j *Journey) AttrSumNanos() int64 {
	var n int64
	for i := range j.Hops {
		n += j.Hops[i].AttrTotalNanos()
	}
	return n
}

// EndToEndNanos is the virtual time between the journey's first and
// last recorded events.
func (j *Journey) EndToEndNanos() int64 {
	if len(j.Hops) == 0 {
		return 0
	}
	return j.Hops[len(j.Hops)-1].TimeNanos - j.Hops[0].TimeNanos
}

// FlowSpan groups one flow's journeys, in first-event order.
type FlowSpan struct {
	Flow     uint64
	Journeys []Journey
}

// AssembleSpans groups merged trace events (FlightRecorder.Events
// order) into per-flow spans of per-packet journeys. Events keep their
// merged order inside each journey.
func AssembleSpans(evs []TraceRec) []FlowSpan {
	spanIdx := make(map[uint64]int)
	journeyIdx := make(map[uint64]map[uint64]int)
	var spans []FlowSpan
	for _, e := range evs {
		si, ok := spanIdx[e.Flow]
		if !ok {
			si = len(spans)
			spanIdx[e.Flow] = si
			spans = append(spans, FlowSpan{Flow: e.Flow})
			journeyIdx[e.Flow] = make(map[uint64]int)
		}
		sp := &spans[si]
		ji, ok := journeyIdx[e.Flow][e.Journey]
		if !ok {
			ji = len(sp.Journeys)
			journeyIdx[e.Flow][e.Journey] = ji
			sp.Journeys = append(sp.Journeys, Journey{Flow: e.Flow, ID: e.Journey})
		}
		j := &sp.Journeys[ji]
		j.Hops = append(j.Hops, e)
	}
	return spans
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" complete slices, "i" instants, "M" metadata. Perfetto and
// chrome://tracing load the containing {"traceEvents": [...]} object.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders spans as Chrome trace-event JSON. Each flow
// becomes a process (pid), each journey a thread (tid); the gap between
// consecutive hops becomes an "X" slice named for the arriving hop and
// carrying the attributed components in args; sends and drops become
// instants. Timestamps are virtual microseconds; slice events are
// emitted in non-decreasing ts order.
func WriteChromeTrace(w io.Writer, spans []FlowSpan) error {
	var meta, evs []chromeEvent
	for pi := range spans {
		sp := &spans[pi]
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pi,
			Args: map[string]any{"name": fmt.Sprintf("flow %016x", sp.Flow)},
		})
		for ti := range sp.Journeys {
			j := &sp.Journeys[ti]
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pi, Tid: ti,
				Args: map[string]any{"name": fmt.Sprintf("journey %d", j.ID)},
			})
			for k := range j.Hops {
				h := &j.Hops[k]
				if k == 0 || h.Kind >= KindDropQueue {
					evs = append(evs, chromeEvent{
						Name: KindName(h.Kind), Ph: "i", S: "t",
						Ts: float64(h.TimeNanos) / 1e3, Pid: pi, Tid: ti,
						Args: hopArgs(h),
					})
				}
				if k == 0 {
					continue
				}
				prev := &j.Hops[k-1]
				dur := float64(h.TimeNanos-prev.TimeNanos) / 1e3
				evs = append(evs, chromeEvent{
					Name: KindName(prev.Kind) + "→" + KindName(h.Kind), Ph: "X",
					Ts: float64(prev.TimeNanos) / 1e3, Dur: &dur, Pid: pi, Tid: ti,
					Args: hopArgs(h),
				})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: append(meta, evs...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// hopArgs renders one hop's attribution for the trace viewer.
func hopArgs(h *TraceRec) map[string]any {
	args := map[string]any{
		"node": h.Node, "shard": h.Shard, "size": h.Size,
		"queue_ns": h.QueueNanos, "ser_ns": h.SerializeNanos,
		"prop_ns": h.PropagateNanos, "policy_ns": h.PolicyNanos,
		"proc_ns": h.ProcNanos,
	}
	if h.Cause != 0 {
		args["cause"] = CauseName(h.Cause)
		args["class"] = h.Class
	}
	return args
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the schema invariants the scrape smoke and the CI trace step enforce:
// a non-empty traceEvents array, required keys per event, a phase some
// writer emits (M, X or i: WriteChromeTrace writes all three,
// benchmark/trace.go M and X), non-negative dur on "X" slices, and
// non-decreasing ts across non-metadata events.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: empty traceEvents")
	}
	lastTs := make(map[[2]int]float64) // per (pid, tid) lanes stay ordered
	var globalTs float64
	globalSet := false
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok {
			return fmt.Errorf("chrome trace: event %d: missing ph", i)
		}
		if _, ok := ev["name"].(string); !ok {
			return fmt.Errorf("chrome trace: event %d: missing name", i)
		}
		switch ph {
		case "M":
			continue
		case "X", "i":
		default:
			return fmt.Errorf("chrome trace: event %d: unsupported ph %q", i, ph)
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			return fmt.Errorf("chrome trace: event %d: missing ts", i)
		}
		pid, okP := numField(ev, "pid")
		tid, okT := numField(ev, "tid")
		if !okP || !okT {
			return fmt.Errorf("chrome trace: event %d: missing pid/tid", i)
		}
		lane := [2]int{pid, tid}
		if globalSet && ts < globalTs {
			return fmt.Errorf("chrome trace: event %d: ts %v regresses below %v", i, ts, globalTs)
		}
		globalTs, globalSet = ts, true
		if last, ok := lastTs[lane]; ok && ts < last {
			return fmt.Errorf("chrome trace: event %d: lane %v ts regresses", i, lane)
		}
		lastTs[lane] = ts
		if ph == "X" {
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				return fmt.Errorf("chrome trace: event %d: X without non-negative dur", i)
			}
		}
	}
	return nil
}

func numField(ev map[string]any, key string) (int, bool) {
	v, ok := ev[key].(float64)
	if !ok {
		return 0, false
	}
	return int(v), true
}
