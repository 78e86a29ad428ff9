// Command pairs runs the benchmark on a base revision and on the working
// tree in alternating pairs, and gives one verdict per metric by one
// rule: better when the change wins at least 9 pairs in 10 and its
// median moves past the base's interquartile range in the better
// direction, worse when the same holds the other way, flat otherwise.
//
//	go run ./scripts/pairs -base HEAD~1 -workload sim-backbone -pairs 10 -seconds 15 [-seed 1] [-trace]
//
// The base is checked out with `git worktree add --detach` into a
// temporary directory ($TMPDIR), removed at the end. Pair i runs the base
// first when i is even and the change first when it is odd. A run is
// `go run ./benchmark --workload W --seed N --seconds S --trace 0|1` in
// its tree; the last line of its stdout is its result, and its report
// goes to stderr. A run that reads correct false or failed > 0, or
// prints no result line, stops the tool with exit status 1. The metrics and their
// directions come from the working tree's BENCHMARK.json: end_to_end, or
// per_layer with -trace.
//
// Stdout gets, per metric, the pair table, each side's quartiles, the
// medians, the base's IQR, the wins and a Mann–Whitney U with its
// two-sided p (from internal/measure), then the verdict, marked as no
// claim when fewer than 10 pairs ran.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"

	"netneutral/internal/measure"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one BENCHMARK.json metric.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// spec is the part of BENCHMARK.json the verdicts need.
type spec struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// result is a benchmark run's last stdout line.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "HEAD", "git revision to compare the working tree against")
	workload := fs.String("workload", "", "benchmark workload (required)")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	seconds := fs.Float64("seconds", 15, "measuring time of each run")
	seed := fs.Int64("seed", 1, "benchmark seed")
	trace := fs.Bool("trace", false, "compare the per-layer metrics of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "pairs: -workload is required and -pairs must be at least 1")
		return 2
	}
	metrics, err := loadMetrics("BENCHMARK.json", *trace)
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "pairs-base-")
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if out, err := exec.Command("git", "worktree", "add", "--detach", dir, *base).CombinedOutput(); err != nil {
		fmt.Fprintf(stderr, "pairs: git worktree add %s: %v\n%s", *base, err, out)
		return 1
	}
	defer exec.Command("git", "worktree", "remove", "--force", dir).Run()

	benchArgs := []string{"run", "./benchmark", "--workload", *workload,
		"--seed", strconv.FormatInt(*seed, 10), "--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[*trace]}
	runs := [2][]result{} // base, change
	for i := 0; i < *pairs; i++ {
		for _, side := range order(i) {
			r, err := bench([2]string{dir, "."}[side], benchArgs, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "pairs: pair %d, %s: %v\n", i+1, sideName(side), err)
				return 1
			}
			runs[side] = append(runs[side], r)
		}
	}
	fmt.Fprintf(stdout, "%s, seed %d, %d pairs of %g s, base %s against the working tree\n",
		*workload, *seed, *pairs, *seconds, *base)
	for _, m := range metrics {
		b, c := values(runs[0], m.Name), values(runs[1], m.Name)
		if b == nil || c == nil {
			continue
		}
		report(stdout, m, b, c)
	}
	return 0
}

// order is which side (0 base, 1 change) runs first in pair i.
func order(i int) [2]int {
	if i%2 == 0 {
		return [2]int{0, 1}
	}
	return [2]int{1, 0}
}

func sideName(side int) string { return [2]string{"base", "change"}[side] }

func loadMetrics(path string, traced bool) ([]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if traced {
		return s.PerLayer, nil
	}
	return s.EndToEnd, nil
}

// bench runs the benchmark once in tree and returns its result.
func bench(tree string, args []string, stderr io.Writer) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = tree, &out, stderr
	runErr := cmd.Run() // a run with failed operations exits 1 but still prints its line
	r, err := lastResult(out.Bytes())
	if err != nil {
		return r, errors.Join(runErr, err)
	}
	if !r.Correct || r.Failed > 0 {
		return r, fmt.Errorf("correct %v, failed %d", r.Correct, r.Failed)
	}
	return r, runErr
}

// lastResult parses the last non-empty line of a run's stdout.
func lastResult(out []byte) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.Metrics == nil {
		return r, fmt.Errorf("no result line in the output (last line %q)", last)
	}
	return r, nil
}

// values is one metric over runs, or nil if any run lacks it.
func values(runs []result, name string) []float64 {
	v := make([]float64, 0, len(runs))
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		v = append(v, m.Value)
	}
	return v
}

// quantile is the q-quantile of x by linear interpolation between order
// statistics.
func quantile(x []float64, q float64) float64 {
	s := slices.Clone(x)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// iqr is x's interquartile range.
func iqr(x []float64) float64 { return quantile(x, 0.75) - quantile(x, 0.25) }

// summary is one metric's comparison.
type summary struct {
	baseMed, changeMed, baseIQR float64
	wins, losses, n             int
	verdict                     string
}

// judge applies the rule to paired values: a pair is a win when the
// change is better in it; the verdict is better (or worse) when at
// least 9 pairs in 10 go that way and the medians differ by more than
// the base's IQR in that direction.
func judge(base, change []float64, lower bool) summary {
	gain := func(b, c float64) float64 { // > 0: the change is better
		if lower {
			return b - c
		}
		return c - b
	}
	s := summary{baseMed: measure.Median(base), changeMed: measure.Median(change), baseIQR: iqr(base), n: len(base)}
	for i := range base {
		switch g := gain(base[i], change[i]); {
		case g > 0:
			s.wins++
		case g < 0:
			s.losses++
		}
	}
	move := gain(s.baseMed, s.changeMed)
	s.verdict = "flat"
	switch {
	case s.wins*10 >= 9*s.n && move > s.baseIQR:
		s.verdict = "better"
	case s.losses*10 >= 9*s.n && -move > s.baseIQR:
		s.verdict = "worse"
	}
	return s
}

func report(w io.Writer, m metric, base, change []float64) {
	s := judge(base, change, m.Better != "higher")
	fmt.Fprintf(w, "\n%s (%s is better)\n  pair  first   %12s %12s\n", m.Name, m.Better, "base", "change")
	for i := range base {
		fmt.Fprintf(w, "  %-5d %-7s %12.6g %12.6g\n", i+1, sideName(order(i)[0]), base[i], change[i])
	}
	pct := 100 * (s.changeMed - s.baseMed) / s.baseMed
	mw := measure.MannWhitney(base, change)
	fmt.Fprintf(w, "  quartiles base [%.6g %.6g], change [%.6g %.6g]\n",
		quantile(base, 0.25), quantile(base, 0.75), quantile(change, 0.25), quantile(change, 0.75))
	note := ""
	if s.n < 10 {
		note = " (under 10 pairs: not a claim)"
	}
	fmt.Fprintf(w, "  median %.6g -> %.6g (%+.1f %%), base IQR %.6g, wins %d/%d, U %.1f (p %.3g): %s%s\n",
		s.baseMed, s.changeMed, pct, s.baseIQR, s.wins, s.n, mw.Stat, mw.P, s.verdict, note)
}
