package main

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netneutral/internal/eval"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
)

// runCLI drives the command in-process and returns what it printed.
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("neutsim %v: %v", args, err)
	}
	return out.String(), errb.String()
}

// detTable is what neutsim owes stdout for one result: the table of its
// non-wall rows, then a blank line.
func detTable(t *testing.T, res *eval.Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	det := eval.Result{ID: res.ID, Title: res.Title}
	for _, r := range res.Rows {
		if !r.Wall {
			det.Rows = append(det.Rows, r)
		}
	}
	return det.String() + "\n"
}

// TestModesPrintEvalRows runs the no-flag default, the experiments that
// time this host (E1–E5, A1, A2), and every CI smoke line that sizes an
// experiment: stdout must be exactly the deterministic rows the registry
// entries produce at the Scale the flags stand for (so it is also
// replay-identical across two runs of one seed), and the wall-clock rows
// must be on stderr. replay runs the line a second time, whose stdout
// must be the same bytes.
func TestModesPrintEvalRows(t *testing.T) {
	modes := []struct {
		name   string
		args   []string
		id     string // comma-separated registry ids
		scale  eval.Scale
		wall   string // a wall row metric expected on stderr ("" = none)
		replay bool
	}{
		{name: "default", id: "F1,F2", replay: true},
		{name: "fixed", args: []string{"-exp", "E1,E2,E3,E4,E5,A1,A2"}, id: "E1,E2,E3,E4,E5,A1,A2",
			wall: "key-setup responses", replay: true},
		{name: "metro", args: []string{"-exp", "E6", "-hosts", "1000", "-duration", "1s", "-seed", "7"},
			id: "E6", scale: eval.Scale{Hosts: 1000, Duration: time.Second, Seed: 7}, wall: "sim events/sec"},
		{name: "parscale", args: []string{"-exp", "E9", "-hosts", "800", "-duration", "500ms", "-seed", "7"},
			id: "E9", scale: eval.Scale{Hosts: 800, Duration: 500 * time.Millisecond, Seed: 7}, wall: "events/sec at 4 worker(s)"},
		{name: "arms", args: []string{"-exp", "E7", "-flows", "16", "-duration", "2s", "-seed", "7"},
			id: "E7", scale: eval.Scale{Flows: 16, Duration: 2 * time.Second, Seed: 7}},
		{name: "audit", args: []string{"-exp", "E8", "-vantages", "8", "-trials", "10", "-seed", "7"},
			id: "E8", scale: eval.Scale{Vantages: 8, Trials: 10, Seed: 7}},
		{name: "realproto", args: []string{"-exp", "E10", "-seed", "7"}, replay: true,
			id: "E10", scale: eval.Scale{Seed: 7}},
		{name: "backbone", replay: true,
			args: []string{"-exp", "E13", "-metros", "4", "-hosts", "1000", "-duration", "400ms", "-seed", "7", "-simworkers", "2"},
			id:   "E13", scale: eval.Scale{Metros: 4, Hosts: 1000, Duration: 400 * time.Millisecond, Seed: 7, Workers: 2},
			wall: "events/sec at 2 worker(s)"},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			stdout, stderr := runCLI(t, m.args...)
			want := ""
			for _, id := range strings.Split(m.id, ",") {
				e, _ := eval.ByID(id)
				res, err := e.Run(m.scale)
				want += detTable(t, res, err)
			}
			if stdout != want {
				t.Errorf("stdout is not the eval rows\ngot:\n%s\nwant:\n%s", stdout, want)
			}
			if m.wall == "" && stderr != "" {
				t.Errorf("unexpected stderr:\n%s", stderr)
			}
			if !strings.Contains(stderr, m.wall) {
				t.Errorf("stderr lacks wall row %q:\n%s", m.wall, stderr)
			}
			if m.replay {
				if again, _ := runCLI(t, m.args...); again != stdout {
					t.Errorf("two runs with one seed differ\nfirst:\n%s\nsecond:\n%s", stdout, again)
				}
			}
		})
	}
}

func TestListPrintsRegisteredIDs(t *testing.T) {
	out, _ := runCLI(t, "-list")
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E13 F1 F2 A1 A2 A3 A4 A5 A6 A7 A8"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("-list ids = %s\nwant        %s", got, want)
	}
}

// TestExpPrintsEvalRendering: A4–A8 are read through this command, so
// `-exp A5` must print exactly the registry entry's rendering — and, the
// story being deterministic, the same bytes on a second run. -exp F1,F2
// is the no-flag output.
func TestExpPrintsEvalRendering(t *testing.T) {
	e, _ := eval.ByID("A5")
	res, err := e.Run(eval.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.String() + "\n"
	for i := 0; i < 2; i++ {
		if out, errs := runCLI(t, "-exp", "A5"); out != want || errs != "" {
			t.Errorf("run %d: stdout differs from the registry's rendering (stderr %q):\n%s\nwant:\n%s", i, errs, out, want)
		}
	}
	plain, _ := runCLI(t)
	if figures, _ := runCLI(t, "-exp", "F1,F2"); figures != plain {
		t.Errorf("-exp F1,F2 differs from the no-flag output:\n%s\nwant:\n%s", figures, plain)
	}
}

// TestMetroObservabilityWiring: -trace/-traceout/-metrics on the E6
// run leave the rows alone, add the lines scrapesmoke parses, and write
// a schema-valid Chrome trace that holds at least one span or instant.
func TestMetroObservabilityWiring(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	base := []string{"-exp", "E6", "-hosts", "300", "-duration", "100ms", "-seed", "7"}
	plain, _ := runCLI(t, base...)
	stdout, _ := runCLI(t, append(base, "-trace", "all", "-traceout", tracePath,
		"-metrics", "127.0.0.1:0", "-metricshold", "1ms")...)

	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "metrics listening on http://127.0.0.1:") || !strings.HasSuffix(lines[0], "/metrics") {
		t.Errorf("first line = %q, want the listen line", lines[0])
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "metrics holding for ") {
		t.Errorf("last line = %q, want the hold line", last)
	}
	if !strings.Contains(stdout, plain) {
		t.Errorf("observed run's rows differ from the plain run's\nplain:\n%s\nobserved:\n%s", plain, stdout)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("trace file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("trace file has no span events (only metadata) among %d", len(doc.TraceEvents))
	}
}

// refused requires neutsim to refuse args before anything runs, with an
// error that contains want.
func refused(t *testing.T, want string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	start := time.Now()
	if err := run(args, &out, &errb); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("neutsim %v: error %v, want %q", args, err, want)
	}
	if out.Len() != 0 || errb.Len() != 0 || time.Since(start) > time.Second {
		t.Errorf("neutsim %v did not fail fast (printed %q, %q)", args, out.String(), errb.String())
	}
}

func TestUnknownExperimentNamesList(t *testing.T) {
	refused(t, `unknown experiment "Z9" (try -list)`, "-exp", "Z9")
	refused(t, `unknown experiment "" (try -list)`, "-exp", "E6,")
}

// TestSizeFlagsNeedExp: an old `neutsim -hosts 1000` fails loudly
// instead of printing F1 and F2.
func TestSizeFlagsNeedExp(t *testing.T) {
	refused(t, "-hosts sizes an experiment: name it with -exp", "-hosts", "1000")
	refused(t, "-seed sizes an experiment", "-seed", "7")
}

func TestObservabilityFlagsNeedMetro(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "t.json")
	refused(t, "observe the metro run: they need -exp E6", "-metrics", "127.0.0.1:0")
	refused(t, "need -exp E6", "-exp", "E7", "-metrics", "127.0.0.1:0")
	refused(t, "need -exp E6", "-exp", "E6,E7", "-trace", "all")
	refused(t, "need -exp E6", "-exp", "all", "-metricshold", "1s")
	refused(t, "need -exp E6", "-traceout", traceOut)
	refused(t, "-traceout requires -trace", "-exp", "E6", "-traceout", traceOut)
	refused(t, `-trace "every"`, "-exp", "E6", "-trace", "every")
}

func TestParseFlowSpec(t *testing.T) {
	// 10.0.0.1 -> 10.0.1.5: the pair forms hash the same key netem
	// stamps on packets.
	key := func(proto uint8) uint64 {
		k, err := netem.FlowKeyFrom(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.5"), proto)
		if err != nil {
			t.Fatal(err)
		}
		return netem.FlowKeyHash(k)
	}
	good := []struct {
		spec string
		frac float64
		tags []uint64
	}{
		{"all", 1, nil},
		{"0.25", 0.25, nil},
		{"1", 1, nil},
		{"0xDEADBEEF", 0, []uint64{0xDEADBEEF}},
		{"0Xff", 0, []uint64{0xff}},
		{"10.0.0.1-10.0.1.5", 0, []uint64{key(17)}},
		{"10.0.0.1-10.0.1.5/6", 0, []uint64{key(6)}},
	}
	for _, c := range good {
		cfg, tags, err := parseFlowSpec(c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if cfg.SampleFlows != c.frac || cfg.RingSize != 1<<14 {
			t.Errorf("%q: config = %+v, want SampleFlows %v on a 16k ring", c.spec, cfg, c.frac)
		}
		if len(tags) != len(c.tags) || (len(tags) == 1 && tags[0] != c.tags[0]) {
			t.Errorf("%q: tags = %x, want %x", c.spec, tags, c.tags)
		}
	}
	if key(17) == key(6) {
		t.Error("protocol does not reach the flow hash")
	}
	for _, spec := range []string{"every", "0", "1.5", "0xZZ", "10.0.0.1-nowhere", "::1-10.0.0.1", "10.0.0.1-10.0.1.5/tcp"} {
		if _, _, err := parseFlowSpec(spec); err == nil {
			t.Errorf("%q: want an error", spec)
		}
	}
}
