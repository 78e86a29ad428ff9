// Package eval implements the reproduction harness: one registered
// experiment per table, figure, or headline number in the paper, each
// producing printable rows of paper-vs-measured values. All is the one
// table of experiments; cmd/neutsim runs them by id, at their registered
// sizes or at the sizes its flags give. A row that states a claim in its
// Paper column carries its own verdict (Row.Failed, computed where the
// row is built), and every registry entry returns the first failed row as
// its error (Result.Err).
//
// See README.md ("Reproducing the paper's numbers") for the experiment
// index.
package eval

import (
	"fmt"
	"io"
	mathrand "math/rand"
	"strings"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/netem"
)

// Row is one reported metric.
type Row struct {
	Metric   string
	Paper    string // what the paper reports ("-" when the paper gives no number)
	Measured string
	Note     string
	// Wall marks a row whose Measured or Note carries a wall-clock
	// figure: everything else is a pure function of the experiment's
	// parameters, so neutsim keeps wall rows off its replay-diffed stdout.
	Wall bool
	// Failed marks a row whose claim did not hold: the Paper column,
	// stated as a comparison on the measured values where the row is
	// built. The zero value is "no claim, or the claim holds".
	Failed bool
}

// Result is the outcome of one experiment.
type Result struct {
	ID    string
	Title string
	Rows  []Row
}

// String renders the result as an aligned table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	w1, w2, w3 := len("metric"), len("paper"), len("measured")
	for _, row := range r.Rows {
		w1, w2, w3 = max(w1, len(row.Metric)), max(w2, len(row.Paper)), max(w3, len(row.Measured))
	}
	fmt.Fprintf(&b, "  %-*s  %-*s  %-*s  %s\n", w1, "metric", w2, "paper", w3, "measured", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s  %-*s  %-*s  %s\n", w1, row.Metric, w2, row.Paper, w3, row.Measured, row.Note)
	}
	return b.String()
}

// Err is the experiment's verdict: the first failed row, or nil.
func (r *Result) Err() error {
	for _, row := range r.Rows {
		if row.Failed {
			return fmt.Errorf("eval: %s: %q failed: measured %s (paper: %s)", r.ID, row.Metric, row.Measured, row.Paper)
		}
	}
	return nil
}

// Scale is cmd/neutsim's size flags as one value. A zero field keeps
// the registered value; the fixed experiments (E1–E5, F1, F2, A1–A8)
// ignore Scale.
type Scale struct {
	Seed     int64         // every RNG of the run
	Hosts    int           // E6, E9: customer hosts; E13: hosts per metro
	Metros   int           // E13
	Flows    int           // E7: flows per application class
	Vantages int           // E8: outside vantages; a third of them (at least 1) inside
	Trials   int           // E8: trials per vantage
	Workers  int           // E6, E8: engine threads; E13: sweep 1 and Workers when > 1
	Duration time.Duration // E6, E7, E9, E13: simulated traffic time
	// Attach is E6's MetroConfig.Attach: neutsim's -metrics and -trace
	// mount their observers on the run through it.
	Attach func(*netem.Simulator)
}

// seed is Seed, or the experiment's registered seed when Seed is 0.
func (s Scale) seed(registered int64) int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return registered
}

// Experiment is a registered reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Result, error)
}

// All returns every experiment in presentation order. The sizes of the
// scaled ones are their configs' fill() defaults; the seeds and the
// observation they run with are registered here. Each entry's Run fails
// with its result's Err.
func All() []Experiment {
	all := []Experiment{
		{"E1", "Key-setup throughput (§4: 24.4 kpps)", RunE1},
		{"E2", "Sources served per master-key epoch (§4: 88M/hour)", RunE2},
		{"E3", "Data path vs vanilla forwarding (§4: 422 vs 600 kpps)", RunE3},
		{"E4", "Raw crypto operation rate (§4: 2.35M ops/s)", RunE4},
		{"E5", "Sharded stateless data plane (anycast scaling in-process)", RunE5},
		{"E6", metroTitle, func(s Scale) (*Result, error) {
			return rows(RunMetro(MetroConfig{Hosts: s.Hosts, Seed: s.seed(66), Duration: s.Duration, Workers: s.Workers, Attach: s.Attach}))
		}},
		{"E7", armsTitle, func(s Scale) (*Result, error) {
			return rows(RunArms(ArmsConfig{FlowsPerClass: s.Flows, Seed: s.seed(7), Duration: s.Duration}))
		}},
		{"E8", auditTitle, func(s Scale) (*Result, error) {
			return rows(RunAudit(AuditConfig{Vantages: s.Vantages, Trials: s.Trials, Seed: s.seed(8), Workers: s.Workers}))
		}},
		{"E9", parScaleTitle, func(s Scale) (*Result, error) {
			return rows(RunParScale(ParScaleConfig{Hosts: s.Hosts, Seed: s.seed(9), Duration: s.Duration}))
		}},
		{"E10", realProtoTitle, func(s Scale) (*Result, error) {
			return rows(RunRealProto(RealProtoConfig{Seed: s.seed(10)}))
		}},
		{"E13", backboneTitle, func(s Scale) (*Result, error) {
			sweep := []int{1, 2, 4}
			if s.Workers > 1 {
				sweep = []int{1, s.Workers}
			}
			runs, err := RunBackboneIdentity(BackboneConfig{
				Metros: s.Metros, HostsPerMetro: s.Hosts, Seed: s.seed(13), Duration: s.Duration, Observe: true,
			}, sweep)
			if err != nil {
				return nil, err
			}
			return runs[0].Result(), nil // the sweep's first run renders all of it
		}},
		{"F1", "Figure 1: customer indistinguishability inside a discriminatory ISP", RunF1},
		{"F2", "Figure 2: protocol walk with eavesdropper assertions", RunF2},
		{"A1", "§3.2 ablation: chosen key setup vs certified-pubkey alternative", RunA1},
		{"A2", "§3.2 ablation: offloading RSA work to customers", RunA2},
		{"A3", "§5: neutralizer vs onion-routing baseline", RunA3},
		{"A4", "§1 motivation: targeted VoIP degradation and the neutralizer cure", RunA4},
		{"A5", "§3.6: key-setup flood and pushback", RunA5},
		{"A6", "§3.5: multi-homed neutralizer selection strategies", RunA6},
		{"A7", "§3.1: DNS bootstrap under query discrimination", RunA7},
		{"A8", "§3.4: tiered service and guaranteed service coexistence", RunA8},
	}
	for i := range all {
		run := all[i].Run
		all[i].Run = func(s Scale) (*Result, error) {
			res, err := run(s)
			if err != nil {
				return nil, err
			}
			return res, res.Err()
		}
	}
	return all
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// rows adapts a RunX(cfg)'s (stats, error) pair to its result rows.
func rows[S interface{ Result() *Result }](st S, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return st.Result(), nil
}

// enumName words an experiment enum's value for rows and errors: names
// are listed in declaration order.
func enumName[E ~uint8](v E, names ...string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return "?"
}

// orDefault gives an unset (zero or negative) config field its default.
func orDefault[T int | float64 | time.Duration](field *T, def T) {
	if *field <= 0 {
		*field = def
	}
}

// benchStart anchors every simulator at the master-key schedule's start.
var benchStart = benchenv.Start

// measureRate runs fn n times and returns operations/second.
func measureRate(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(n) / el
}

func kpps(rate float64) string { return fmt.Sprintf("%.1f kpps", rate/1e3) }

// detRand returns a deterministic entropy source for reproducible
// simulation experiments.
func detRand(seed int64) io.Reader { return mathrand.New(mathrand.NewSource(seed)) }
