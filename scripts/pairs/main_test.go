package main

import (
	"bytes"
	"testing"
)

func TestQuantileAndIQR(t *testing.T) {
	x := []float64{7, 1, 3, 5} // sorted 1 3 5 7
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2.5}, {0.5, 4}, {0.75, 5.5}, {1, 7}} {
		if got := quantile(x, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", x, c.q, got, c.want)
		}
	}
	if got := iqr(x); got != 3 {
		t.Errorf("iqr = %g, want 3", got)
	}
	if got := iqr([]float64{2}); got != 0 {
		t.Errorf("iqr of one value = %g, want 0", got)
	}
	if x[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
}

// TestJudgeRule: better needs both 9 wins in 10 and a median move past
// the base's IQR; worse is the mirror; either direction of "better".
func TestJudgeRule(t *testing.T) {
	base := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 10.3, 9.7, 10, 10.1} // IQR 0.2
	shift := func(d float64, keep int) []float64 {
		c := make([]float64, len(base))
		for i := range base {
			c[i] = base[i] + d
			if i < keep {
				c[i] = base[i] - d // these pairs go the other way
			}
		}
		return c
	}
	for _, c := range []struct {
		name   string
		change []float64
		lower  bool
		want   string
		wins   int
	}{
		{"10/10 lower, far", shift(-1, 0), true, "better", 10},
		{"9/10 lower, far", shift(-1, 1), true, "better", 9},
		{"8/10 lower, far", shift(-1, 2), true, "flat", 8},
		{"10/10 lower, inside IQR", shift(-0.1, 0), true, "flat", 10},
		{"10/10 higher", shift(1, 0), true, "worse", 0},
		{"higher is better", shift(1, 0), false, "better", 10},
		{"higher is better, 9/10 lower", shift(-1, 1), false, "worse", 1},
		{"unchanged", shift(0, 0), true, "flat", 0},
	} {
		s := judge(base, c.change, c.lower)
		if s.verdict != c.want || s.wins != c.wins {
			t.Errorf("%s: %s with %d wins, want %s with %d", c.name, s.verdict, s.wins, c.want, c.wins)
		}
	}
}

func TestOrderAlternates(t *testing.T) {
	for i, want := range [][2]int{{0, 1}, {1, 0}, {0, 1}, {1, 0}} {
		if got := order(i); got != want {
			t.Errorf("order(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestLastResult(t *testing.T) {
	out := []byte("building\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"cost_x\":{\"value\":0.41,\"unit\":\"x\"}}}\n")
	r, err := lastResult(out)
	if err != nil || !r.Correct || r.Metrics["cost_x"].Value != 0.41 {
		t.Errorf("lastResult: %+v, %v", r, err)
	}
	for _, bad := range []string{"", "no json\n", "{\"correct\":true}\n"} {
		if _, err := lastResult([]byte(bad)); err == nil {
			t.Errorf("lastResult(%q) accepted", bad)
		}
	}
	if v := values([]result{r, r}, "cost_x"); len(v) != 2 || v[1] != 0.41 {
		t.Errorf("values = %v", v)
	}
	if v := values([]result{r, {}}, "cost_x"); v != nil {
		t.Errorf("values with a missing metric = %v, want nil", v)
	}
}

// TestMetricsFromBenchmarkJSON reads the module's own BENCHMARK.json.
func TestMetricsFromBenchmarkJSON(t *testing.T) {
	e2e, err := loadMetrics("../../BENCHMARK.json", false)
	if err != nil || len(e2e) == 0 {
		t.Fatalf("end_to_end: %v, %v", e2e, err)
	}
	layers, err := loadMetrics("../../BENCHMARK.json", true)
	if err != nil || len(layers) == 0 {
		t.Fatalf("per_layer: %v, %v", layers, err)
	}
	for _, m := range append(e2e, layers...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func TestRefusesMissingWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-pairs", "3"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}

// TestReportMarksShortRuns: a verdict from fewer than 10 pairs is
// printed, but marked as no claim.
func TestReportMarksShortRuns(t *testing.T) {
	m := metric{Name: "cost_x", Better: "lower"}
	for _, c := range []struct {
		base, change []float64
		note         bool
	}{
		{[]float64{1, 1.1, 0.9}, []float64{0.5, 0.6, 0.4}, true},
		{[]float64{1, 1.1, 0.9, 1, 1, 1.1, 0.9, 1, 1, 1}, []float64{0.5, 0.6, 0.4, 0.5, 0.5, 0.6, 0.4, 0.5, 0.5, 0.5}, false},
	} {
		var out bytes.Buffer
		report(&out, m, c.base, c.change)
		got := out.String()
		if !bytes.Contains(out.Bytes(), []byte(": better")) || bytes.Contains(out.Bytes(), []byte("not a claim")) != c.note {
			t.Errorf("%d pairs: report\n%s", len(c.base), got)
		}
	}
}
