// Package eval implements the reproduction harness: one registered
// experiment per table, figure, or headline number in the paper, each
// producing printable rows of paper-vs-measured values. The harness is
// shared by cmd/neutbench (which prints the registered rows) and
// cmd/neutsim (which prints the parametrised experiments' rows at a
// chosen scale).
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

// Experiment is a registered reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Key-setup throughput (§4: 24.4 kpps)", RunE1},
		{"E2", "Sources served per master-key epoch (§4: 88M/hour)", RunE2},
		{"E3", "Data path vs vanilla forwarding (§4: 422 vs 600 kpps)", RunE3},
		{"E4", "Raw crypto operation rate (§4: 2.35M ops/s)", RunE4},
		{"E5", "Sharded stateless data plane (anycast scaling in-process)", RunE5},
		{"E6", metroTitle, RunE6},
		{"E7", armsTitle, RunE7},
		{"E8", auditTitle, RunE8},
		{"E9", parScaleTitle, RunE9},
		{"E10", realProtoTitle, RunE10},
		{"E13", backboneTitle, RunE13},
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
