package eval

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run (only when a row is meant to change)")

// goldenText is what a golden file holds for one run: the table of the
// result's deterministic (non-Wall) rows, then one line per observation
// digest the run produced, so the recorder rings, flight samples and
// final registry are pinned along with the rows.
func goldenText(res *Result, digests ...labelledDigest) string {
	det := Result{ID: res.ID, Title: res.Title}
	for _, r := range res.Rows {
		if !r.Wall {
			det.Rows = append(det.Rows, r)
		}
	}
	var b strings.Builder
	b.WriteString(det.String())
	for _, d := range digests {
		fmt.Fprintf(&b, "obs %s: ticks=%d points=%d rings=%016x seen=%d sampled=%d flight=%016x final=%016x\n",
			d.label, d.RecorderTicks, d.SeriesPoints, d.RingsHash, d.FlightSeen, d.FlightSampled, d.FlightHash, d.FinalHash)
	}
	return b.String()
}

type labelledDigest struct {
	label string
	*ObsDigest
}

// TestGoldenRows pins every simulated experiment's rows against
// testdata/<ID>.golden: F1, F2 and A3–A8 at their registered sizes,
// E6–E10 and E13 at the sizes CI's neutsim smoke steps run, observation
// on wherever the experiment can digest it. cmd/neutsim's tests only
// compare neutsim with eval, so without this both could drift together.
// `go test ./internal/eval -run TestGoldenRows -update` rewrites the
// files; that is legitimate only when a row is meant to change.
func TestGoldenRows(t *testing.T) {
	registered := func(id string) func() (string, error) {
		return func() (string, error) {
			e, _ := ByID(id)
			res, err := e.Run()
			if err != nil {
				return "", err
			}
			return goldenText(res), nil
		}
	}
	cases := []struct {
		id   string
		slow bool // skipped under -short
		run  func() (string, error)
	}{
		{id: "F1", run: registered("F1")},
		{id: "F2", run: registered("F2")},
		{id: "A3", run: registered("A3")},
		{id: "A4", run: registered("A4")},
		{id: "A5", run: registered("A5")},
		{id: "A6", run: registered("A6")},
		{id: "A7", run: registered("A7")},
		{id: "A8", run: registered("A8")},
		{id: "E6", run: func() (string, error) {
			st, err := RunMetro(MetroConfig{Hosts: 1000, Seed: 7, Duration: time.Second, Observe: true})
			if err != nil {
				return "", err
			}
			return goldenText(st.Result(), labelledDigest{"metro", st.Obs}), nil
		}},
		{id: "E7", slow: true, run: func() (string, error) {
			st, err := RunArms(ArmsConfig{FlowsPerClass: 8, Seed: 7, Duration: 2 * time.Second})
			if err != nil {
				return "", err
			}
			return goldenText(st.Result()), nil
		}},
		{id: "E8", slow: true, run: func() (string, error) {
			st, err := reducedAudit()
			if err != nil {
				return "", err
			}
			var ds []labelledDigest
			for i := range st.Cells {
				c := &st.Cells[i]
				ds = append(ds, labelledDigest{fmt.Sprintf("%v/%v/%v", c.ISP, c.Mode, c.Strategy), c.Obs})
			}
			return goldenText(st.Result(), ds...), nil
		}},
		{id: "E9", run: func() (string, error) {
			st, err := RunParScale(ParScaleConfig{
				Hosts: 800, Seed: 7, Duration: 500 * time.Millisecond, Workers: []int{1, 2, 4}, Observe: true})
			if err != nil {
				return "", err
			}
			return goldenText(st.Result(), labelledDigest{"every worker count", st.Runs[0].Stats.Obs}), nil
		}},
		{id: "E10", run: func() (string, error) {
			st, err := RunRealProto(RealProtoConfig{Seed: 7})
			if err != nil {
				return "", err
			}
			return goldenText(st.Result()), nil
		}},
		{id: "E13", run: func() (string, error) {
			runs, err := RunBackboneIdentity(BackboneConfig{
				Metros: 4, HostsPerMetro: 1000, Seed: 7, Duration: 400 * time.Millisecond, Observe: true,
			}, []int{1, 2})
			if err != nil {
				return "", err
			}
			return goldenText(runs[0].Result(), labelledDigest{"workers 1/2", runs[0].Obs}), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("short mode")
			}
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.id+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("rows differ from %s (rerun with -update only if the change is meant)\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
