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

// TestModesPrintEvalRows runs every mode at its CI smoke size: stdout
// must be exactly the deterministic rows of the eval Result the same
// config produces when run directly (so it is also replay-identical
// across two runs of one seed), and the wall-clock rows must be on
// stderr. replay adds the CI double-run cmp for the modes CI diffs.
func TestModesPrintEvalRows(t *testing.T) {
	modes := []struct {
		name   string
		args   []string
		want   func(t *testing.T) string
		wall   string // a wall row metric expected on stderr ("" = none)
		replay bool
	}{
		{name: "default", replay: true,
			want: func(t *testing.T) string {
				f1, err1 := eval.RunF1()
				f2, err2 := eval.RunF2()
				return detTable(t, f1, err1) + detTable(t, f2, err2)
			}},
		{name: "metro", args: []string{"-hosts", "1000", "-duration", "1s", "-seed", "7"},
			wall: "sim events/sec",
			want: func(t *testing.T) string {
				res, err := rows(eval.RunMetro(eval.MetroConfig{Hosts: 1000, Seed: 7, Duration: time.Second}))
				return detTable(t, res, err)
			}},
		{name: "parscale", args: []string{"-parscale", "-hosts", "800", "-duration", "500ms", "-seed", "7"},
			wall: "events/sec at 4 worker(s)",
			want: func(t *testing.T) string {
				res, err := rows(eval.RunParScale(eval.ParScaleConfig{
					Hosts: 800, Seed: 7, Duration: 500 * time.Millisecond, Workers: []int{1, 2, 4}}))
				return detTable(t, res, err)
			}},
		{name: "arms", args: []string{"-arms", "-flows", "8", "-duration", "2s", "-seed", "7"},
			want: func(t *testing.T) string {
				res, err := rows(eval.RunArms(eval.ArmsConfig{FlowsPerClass: 8, Seed: 7, Duration: 2 * time.Second}))
				return detTable(t, res, err)
			}},
		{name: "audit", args: []string{"-audit", "-vantages", "8", "-trials", "10", "-seed", "7"},
			want: func(t *testing.T) string {
				res, err := rows(eval.RunAudit(eval.AuditConfig{Vantages: 8, InsideVantages: 2, Trials: 10, Seed: 7}))
				return detTable(t, res, err)
			}},
		{name: "realproto", args: []string{"-realproto", "-seed", "7"}, replay: true,
			want: func(t *testing.T) string {
				res, err := rows(eval.RunRealProto(eval.RealProtoConfig{Seed: 7}))
				return detTable(t, res, err)
			}},
		{name: "backbone", replay: true,
			args: []string{"-backbone", "-metros", "4", "-hosts", "1000", "-duration", "400ms", "-seed", "7", "-simworkers", "2"},
			wall: "events/sec at 2 worker(s)",
			want: func(t *testing.T) string {
				runs, err := eval.RunBackboneIdentity(eval.BackboneConfig{
					Metros: 4, HostsPerMetro: 1000, Seed: 7, Duration: 400 * time.Millisecond, Observe: true,
				}, []int{1, 2})
				if err != nil {
					t.Fatal(err)
				}
				return detTable(t, runs[0].Result(), nil)
			}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			stdout, stderr := runCLI(t, m.args...)
			if want := m.want(t); stdout != want {
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

// TestMetroObservabilityWiring: -trace/-traceout/-metrics on the metro
// run leave the rows alone, add the lines scrapesmoke parses, and write
// a schema-valid Chrome trace that holds at least one span or instant.
func TestMetroObservabilityWiring(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	base := []string{"-hosts", "300", "-duration", "100ms", "-seed", "7"}
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

func TestObservabilityFlagsNeedMetro(t *testing.T) {
	for _, args := range [][]string{
		{"-metrics", "127.0.0.1:0"},
		{"-traceout", filepath.Join(t.TempDir(), "t.json")},
		{"-hosts", "100", "-traceout", filepath.Join(t.TempDir(), "t.json")}, // no -trace
	} {
		var out, errb bytes.Buffer
		start := time.Now()
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("neutsim %v: want an error", args)
		}
		if out.Len() != 0 || time.Since(start) > time.Second {
			t.Errorf("neutsim %v did not fail fast (printed %q)", args, out.String())
		}
	}
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
