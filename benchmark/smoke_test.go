//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"netneutral/internal/obs"
)

// smokeCtx runs workloads at probe scale for ~200 ms, writing only under
// the test's temporary directory.
func smokeCtx(t *testing.T) *runCtx {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	c := newRunCtx(root, t.TempDir(), 7, 200*time.Millisecond, testLog{t})
	c.probe = true
	return c
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// children lists live child processes of this test by command name.
func children(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited between glob and read
		}
		open, close := bytes.IndexByte(data, '('), bytes.LastIndexByte(data, ')')
		if open < 0 || close < open {
			continue
		}
		f := strings.Fields(string(data[close+1:]))
		if ppid, err := strconv.Atoi(f[1]); err == nil && ppid == os.Getpid() {
			out = append(out, string(data[open+1:close]))
		}
	}
	return out
}

// TestSmokeEndToEnd runs every workload untraced, including build-and-exec
// of neutralizerd on an ephemeral port and its SIGTERM shutdown, and checks
// the emitted JSON against the benchmark's own tables.
func TestSmokeEndToEnd(t *testing.T) {
	c := smokeCtx(t)
	for _, w := range workloads {
		res, err := runUntraced(c, w.Name)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, res.Attempted, res.Failed, res.Errs)
		}
		checkLine(t, w.Name, res, false, endToEnd)
	}
	if kids := children(t); len(kids) != 0 {
		t.Errorf("leaked child processes: %v", kids)
	}
}

// TestSmokeTraced runs one traced invocation: every per-layer metric must
// be produced (the other workloads' layers surveyed at probe scale) and
// the trace must pass the validator scripts/tracecheck uses.
func TestSmokeTraced(t *testing.T) {
	c := smokeCtx(t)
	out := filepath.Join(c.buildDir, "trace.json")
	res, err := runTraced(c, "core-flows", out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failed %d: %v", res.Failed, res.Errs)
	}
	checkLine(t, "core-flows", res, true, perLayer)
	if got := res.Layers["core.allocs_per_pkt"]; got != 0 {
		t.Errorf("core.allocs_per_pkt = %v, want exactly 0 on the data and return paths", got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("trace rejected: %v", err)
	}
	if kids := children(t); len(kids) != 0 {
		t.Errorf("leaked child processes: %v", kids)
	}
}

// checkLine checks the result line's schema: exactly the contract's four
// keys, and exactly the named metrics, each with its unit.
func checkLine(t *testing.T, workload string, res *result, traced bool, specs []metricSpec) {
	t.Helper()
	raw, err := json.Marshal(res.line(traced))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("%s: result line keys are not exactly correct/attempted/failed/metrics: %s", workload, raw)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, want %d", workload, len(metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s missing or unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, m.Name, got.Value)
		}
	}
}

// TestSeedDeterminism: equal seeds give bit-identical inputs and exact
// counts; different seeds give different inputs.
func TestSeedDeterminism(t *testing.T) {
	build := func(seed int64) *coreRig {
		c := smokeCtx(t)
		c.seed = seed
		r, err := buildCoreRig(c, true)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, other := build(7), build(7), build(8)
	if !reflect.DeepEqual(a.set.pkts, b.set.pkts) || a.set.count != b.set.count {
		t.Error("equal seeds built different packet sets")
	}
	if reflect.DeepEqual(a.set.pkts, other.set.pkts) {
		t.Error("different seeds built the same packet set")
	}
	ra, rb := newResult(), newResult()
	a.verify(ra)
	b.verify(rb)
	if ra.Failed != 0 || !reflect.DeepEqual(ra.Layers, rb.Layers) {
		t.Errorf("drop-class counts differ for equal seeds or verification failed: %v / %v (%v)", ra.Layers, rb.Layers, ra.Errs)
	}
	for cl := classTruncated; cl < nClasses; cl++ {
		if a.set.count[cl] == 0 {
			t.Errorf("the churn mix holds no %s packet", classNames[cl])
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness's own tables and
// to the naming rules.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(spec.Workloads, workloads) {
		t.Errorf("workloads differ from spec.go:\n%+v\n%+v", spec.Workloads, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the charset rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range perLayer {
		check("metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

// TestSelfTimes: a layer's self time is its span minus its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, "batch", "benchmark", at(0), at(10))
	tr.add(root, "parse", "wire", at(0), at(3))
	tr.add(root, "kdf", "keys", at(3), at(7))
	self := tr.selfNanos()
	want := map[string]int64{"benchmark": 3e6, "wire": 3e6, "keys": 4e6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if tr2 := (*tracer)(nil); tr2.begin(0, "x", "y") != 0 {
		t.Error("nil tracer recorded a span")
	}
}
