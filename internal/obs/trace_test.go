package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// mkJourney appends one synthetic journey's events for flow/journey ids:
// a send at start, one forward, and a deliver, with attribution
// components that sum exactly to the hop gaps.
func mkJourney(evs []TraceRec, flow, journey uint64, start int64) []TraceRec {
	return append(evs,
		TraceRec{TimeNanos: start, Flow: flow, Journey: journey, Node: 1, Size: 64, Kind: KindSend},
		TraceRec{TimeNanos: start + 1_500_000, Flow: flow, Journey: journey, Node: 2, Size: 64,
			Kind: KindForward, QueueNanos: 200_000, SerializeNanos: 300_000, PropagateNanos: 1_000_000},
		TraceRec{TimeNanos: start + 3_000_000, Flow: flow, Journey: journey, Node: 3, Size: 64,
			Kind: KindDeliver, PropagateNanos: 750_000, PolicyNanos: 750_000, Cause: 4, Class: 2},
	)
}

// TestAssembleSpans pins the grouping contract: events group by flow
// then journey, keep their merged order inside each journey, and the
// synthetic journeys satisfy the attribution-sum invariant they were
// built to.
func TestAssembleSpans(t *testing.T) {
	var evs []TraceRec
	evs = mkJourney(evs, 0xAA, 1, 10_000_000)
	evs = mkJourney(evs, 0xBB, 7, 11_000_000)
	evs = mkJourney(evs, 0xAA, 2, 12_000_000)

	spans := AssembleSpans(evs)
	if len(spans) != 2 {
		t.Fatalf("assembled %d spans, want 2 flows", len(spans))
	}
	if spans[0].Flow != 0xAA || len(spans[0].Journeys) != 2 {
		t.Fatalf("span 0 = flow %x with %d journeys, want flow aa with 2", spans[0].Flow, len(spans[0].Journeys))
	}
	if spans[1].Flow != 0xBB || len(spans[1].Journeys) != 1 {
		t.Fatalf("span 1 = flow %x with %d journeys, want flow bb with 1", spans[1].Flow, len(spans[1].Journeys))
	}
	for _, sp := range spans {
		for i := range sp.Journeys {
			j := &sp.Journeys[i]
			if last := j.Hops[len(j.Hops)-1].Kind; !j.Complete() || last != KindDeliver {
				t.Fatalf("flow %x journey %d: complete=%v, ends in kind %d; want a complete journey ending in delivery", sp.Flow, j.ID, j.Complete(), last)
			}
			if len(j.Hops) != 3 {
				t.Fatalf("flow %x journey %d: %d hops, want 3", sp.Flow, j.ID, len(j.Hops))
			}
			if sum, e2e := j.AttrSumNanos(), j.EndToEndNanos(); sum != e2e {
				t.Fatalf("flow %x journey %d: components sum to %dns, end-to-end %dns", sp.Flow, j.ID, sum, e2e)
			}
		}
	}
}

// TestJourneyCompleteness pins the edge cases Complete must reject: a
// journey whose head was clipped (no send) and one still in flight (no
// deliver or drop).
func TestJourneyCompleteness(t *testing.T) {
	headless := Journey{Hops: []TraceRec{
		{TimeNanos: 1, Kind: KindForward},
		{TimeNanos: 2, Kind: KindDeliver},
	}}
	if headless.Complete() {
		t.Error("journey without a send event must not be Complete")
	}
	inflight := Journey{Hops: []TraceRec{
		{TimeNanos: 1, Kind: KindSend},
		{TimeNanos: 2, Kind: KindForward},
	}}
	if inflight.Complete() {
		t.Error("journey without a terminal event must not be Complete")
	}
	dropped := Journey{Hops: []TraceRec{
		{TimeNanos: 1, Kind: KindSend},
		{TimeNanos: 2, Kind: KindDropPolicy},
	}}
	if !dropped.Complete() {
		t.Error("a journey ending in a drop is Complete")
	}
}

// TestChromeTraceRoundTrip renders assembled spans and feeds the result
// back through the validator — the exact pipeline behind /trace.json,
// `neutsim -traceout`, and the CI trace smoke.
func TestChromeTraceRoundTrip(t *testing.T) {
	var evs []TraceRec
	evs = mkJourney(evs, 0xAA, 1, 10_000_000)
	evs = mkJourney(evs, 0xBB, 7, 11_000_000)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, AssembleSpans(evs)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var slices, instants, causes int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if !strings.Contains(ev.Name, "→") {
				t.Errorf("slice named %q, want hop→hop form", ev.Name)
			}
		case "i":
			instants++
		}
		if ev.Args["cause"] == "class-delay" {
			causes++
		}
	}
	// Two 3-hop journeys: 2 slices each, plus a send instant each.
	if slices != 4 || instants != 2 {
		t.Errorf("rendered %d slices and %d instants, want 4 and 2", slices, instants)
	}
	if causes == 0 {
		t.Error("no rendered event carries the class-delay cause arg")
	}
}

// TestValidateChromeTraceRejections drives the validator through each
// schema violation it exists to catch.
func TestValidateChromeTraceRejections(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"empty", `{"traceEvents":[]}`, "empty"},
		{"missing-ph", `{"traceEvents":[{"name":"x","ts":1,"pid":0,"tid":0}]}`, "missing ph"},
		{"missing-name", `{"traceEvents":[{"ph":"i","ts":1,"pid":0,"tid":0}]}`, "missing name"},
		{"bad-phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0}]}`, "unsupported ph"},
		{"missing-ts", `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`, "missing ts"},
		{"missing-lane", `{"traceEvents":[{"name":"x","ph":"i","ts":1}]}`, "missing pid/tid"},
		{"ts-regression", `{"traceEvents":[
			{"name":"a","ph":"i","ts":5,"pid":0,"tid":0},
			{"name":"b","ph":"i","ts":4,"pid":1,"tid":0}]}`, "regresses"},
		{"x-without-dur", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}`, "non-negative dur"},
		{"negative-dur", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-2,"pid":0,"tid":0}]}`, "non-negative dur"},
		// No writer emits duration pairs, so the validator tracks none.
		{"e-without-b", `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":0,"tid":0}]}`, "unsupported ph"},
		{"unmatched-b", `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0}]}`, "unsupported ph"},
		{"balanced-b-e", `{"traceEvents":[
			{"name":"a","ph":"B","ts":1,"pid":0,"tid":0},
			{"name":"a","ph":"E","ts":2,"pid":0,"tid":0}]}`, "unsupported ph"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateChromeTrace([]byte(tc.doc))
			if err == nil {
				t.Fatalf("validator accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	ok := `{"traceEvents":[
		{"name":"p","ph":"M","pid":0},
		{"name":"a","ph":"i","ts":1,"pid":0,"tid":0},
		{"name":"s","ph":"X","ts":2,"dur":1,"pid":0,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Fatalf("validator rejected a well-formed document: %v", err)
	}
}
