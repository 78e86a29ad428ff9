//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside internal/ are a later issue). A layer's self time is
// its span minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since tracer start
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All methods are safe
// on a nil tracer and do nothing, so the untraced path pays one nil check.
// Not safe for concurrent use: the harness records from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	lane  int // Chrome tid for spans recorded from now on (one per workload)
	lanes []string
	tids  []int // tids[i] is the lane of spans[i]
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setLane starts a new Chrome-trace lane; spans of one workload are
// sequential, so time containment on one lane reproduces the parent tree.
func (t *tracer) setLane(name string) {
	if t == nil {
		return
	}
	t.lanes = append(t.lanes, name)
	t.lane = len(t.lanes)
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.tids = append(t.tids, t.lane)
	return id
}

// begin opens a span whose end is set by finish.
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, name, layer, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// selfNanos returns each layer's total self time: span durations minus
// the time covered by direct children.
func (t *tracer) selfNanos() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		out[s.Layer] += s.End - s.Start - child[s.ID]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (the format
// scripts/tracecheck validates and Perfetto loads).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	// Parents before children at equal start, so viewers nest them.
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := t.spans[order[a]], t.spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "netneutral benchmark"}}}
	for i, name := range t.lanes {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": name}})
	}
	for _, i := range order {
		s := t.spans[i]
		dur := float64(s.End-s.Start) / 1e3
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: &dur,
			Pid: 1, Tid: t.tids[i], Args: map[string]any{"id": s.ID, "parent": s.Parent, "layer": s.Layer},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
