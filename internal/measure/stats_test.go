package measure

import (
	"math"
	"math/rand"
	"testing"
)

// bruteU1 counts pairs (x_i, y_j) with x > y plus half-credit for ties:
// the definitional Mann-Whitney U1 the rank computation must reproduce.
func bruteU1(x, y []float64) float64 {
	u := 0.0
	for _, a := range x {
		for _, b := range y {
			switch {
			case a > b:
				u++
			case a == b:
				u += 0.5
			}
		}
	}
	return u
}

func TestMannWhitneyUAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n1, n2 := 2+rng.Intn(12), 2+rng.Intn(12)
		x := make([]float64, n1)
		y := make([]float64, n2)
		for i := range x {
			x[i] = float64(rng.Intn(8)) // coarse grid to force ties
		}
		for i := range y {
			y[i] = float64(rng.Intn(8))
		}
		u1 := bruteU1(x, y)
		u2 := float64(n1*n2) - u1
		want := math.Min(u1, u2)
		got := MannWhitney(x, y)
		if math.Abs(got.Stat-want) > 1e-9 {
			t.Fatalf("trial %d: U = %v, brute force %v (x=%v y=%v)", trial, got.Stat, want, x, y)
		}
		wantEff := 2*u1/float64(n1*n2) - 1
		if math.Abs(got.Effect-wantEff) > 1e-9 {
			t.Fatalf("trial %d: effect = %v, want %v", trial, got.Effect, wantEff)
		}
	}
}

// TestMannWhitneyCriticalValues pins the normal approximation against
// the published two-tailed alpha = 0.05 critical values of the exact U
// distribution (e.g. Siegel & Castellan, Table J): at the critical U the
// test must reject (small tolerance for the approximation), and a few
// ranks above it must not.
func TestMannWhitneyCriticalValues(t *testing.T) {
	cases := []struct {
		n1, n2 int
		crit   float64 // largest U with two-tailed p <= 0.05
	}{
		{5, 5, 2},
		{8, 8, 13},
		{10, 10, 23},
		{12, 12, 37},
		{10, 5, 8},
	}
	for _, c := range cases {
		p := mwPForU(t, c.n1, c.n2, c.crit)
		if p > 0.055 {
			t.Errorf("n1=%d n2=%d U=%v: p = %.4f, published critical value demands <= ~0.05", c.n1, c.n2, c.crit, p)
		}
		pAbove := mwPForU(t, c.n1, c.n2, c.crit+3)
		if pAbove <= 0.05 {
			t.Errorf("n1=%d n2=%d U=%v: p = %.4f, want > 0.05 above the critical value", c.n1, c.n2, c.crit+3, pAbove)
		}
		if pAbove <= p {
			t.Errorf("n1=%d n2=%d: p not monotone in U (%.4f at %v, %.4f at %v)", c.n1, c.n2, p, c.crit, pAbove, c.crit+3)
		}
	}
}

// mwPForU builds tie-free samples realizing exactly the target U1 = u
// (u of the x sample's wins) and returns the reported p-value.
func mwPForU(t *testing.T, n1, n2 int, u float64) float64 {
	t.Helper()
	k := int(u)
	if float64(k) != u || k > n1*n2 {
		t.Fatalf("cannot realize U=%v for n1=%d n2=%d", u, n1, n2)
	}
	// Start with all x below all y (U1 = 0), then promote one x past
	// min(k, n2) ys at a time.
	x := make([]float64, n1)
	y := make([]float64, n2)
	for i := range x {
		x[i] = float64(i)
	}
	for j := range y {
		y[j] = float64(n1 + j)
	}
	for i := n1 - 1; i >= 0 && k > 0; i-- {
		wins := k
		if wins > n2 {
			wins = n2
		}
		x[i] = float64(n1+wins) - 0.5 // beats the first `wins` ys
		k -= wins
	}
	res := MannWhitney(x, y)
	if want := math.Min(u, float64(n1*n2)-u); math.Abs(res.Stat-want) > 1e-9 {
		t.Fatalf("constructed U = %v, want %v", res.Stat, want)
	}
	return res.P
}

func bruteKSD(x, y []float64) float64 {
	ecdf := func(s []float64, v float64) float64 {
		n := 0
		for _, a := range s {
			if a <= v {
				n++
			}
		}
		return float64(n) / float64(len(s))
	}
	d := 0.0
	for _, v := range append(append([]float64{}, x...), y...) {
		if diff := math.Abs(ecdf(x, v) - ecdf(y, v)); diff > d {
			d = diff
		}
	}
	return d
}

func TestKolmogorovSmirnovDAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n1, n2 := 2+rng.Intn(15), 2+rng.Intn(15)
		x := make([]float64, n1)
		y := make([]float64, n2)
		for i := range x {
			x[i] = float64(rng.Intn(6))
		}
		for i := range y {
			y[i] = float64(rng.Intn(6))
		}
		got := KolmogorovSmirnov(x, y)
		if want := bruteKSD(x, y); math.Abs(got.Stat-want) > 1e-9 {
			t.Fatalf("trial %d: D = %v, brute force %v (x=%v y=%v)", trial, got.Stat, want, x, y)
		}
	}
}

// TestKolmogorovSmirnovCriticalValue checks the published large-sample
// critical distance D_crit = 1.36*sqrt((n+m)/(n*m)) at alpha = 0.05:
// the reported p at that D must sit near 0.05.
func TestKolmogorovSmirnovCriticalValue(t *testing.T) {
	const n = 100
	dCrit := 1.36 * math.Sqrt(2.0/n)
	// Realize D ~ dCrit with two shifted staircase samples: x uniform on
	// [0,1), y uniform on [shift, 1+shift) gives D ~ shift.
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i) / n
		y[i] = float64(i)/n + dCrit
	}
	res := KolmogorovSmirnov(x, y)
	if math.Abs(res.Stat-dCrit) > 0.02 {
		t.Fatalf("constructed D = %.4f, want ~%.4f", res.Stat, dCrit)
	}
	if res.P < 0.02 || res.P > 0.09 {
		t.Errorf("p at the alpha=0.05 critical distance = %.4f, want near 0.05", res.P)
	}
}

// TestStatsFalsePositiveCalibration draws both samples from the same
// distribution many times: the rejection rate at alpha = 0.05 must stay
// near (and for the auditor's safety, below ~2x) the nominal level, and
// p-values must not collapse toward significance.
func TestStatsFalsePositiveCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const reps = 300
	mwRej, ksRej := 0, 0
	mwPSum := 0.0
	for r := 0; r < reps; r++ {
		x := make([]float64, 20)
		y := make([]float64, 20)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if mw := MannWhitney(x, y); mw.P < 0.05 {
			mwRej++
		} else if mw.P < 0 || mw.P > 1 {
			t.Fatalf("p out of range: %v", mw.P)
		}
		mwPSum += MannWhitney(x, y).P
		if ks := KolmogorovSmirnov(x, y); ks.P < 0.05 {
			ksRej++
		}
	}
	if frac := float64(mwRej) / reps; frac > 0.10 {
		t.Errorf("Mann-Whitney false-positive rate %.3f at alpha=0.05, want <= 0.10", frac)
	}
	if frac := float64(ksRej) / reps; frac > 0.10 {
		t.Errorf("KS false-positive rate %.3f at alpha=0.05, want <= 0.10", frac)
	}
	if mean := mwPSum / reps; mean < 0.3 {
		t.Errorf("mean Mann-Whitney p under the null = %.3f, want >= 0.3", mean)
	}
}

// TestStatsPower: a blatant 90%-drop throttler separates goodput
// distributions so far that both tests must reject decisively at the
// auditor's sample sizes (12 trials).
func TestStatsPower(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < 50; r++ {
		s := make([]float64, 12)
		c := make([]float64, 12)
		for i := range s {
			s[i] = 0.1 + 0.02*rng.Float64()
			c[i] = 0.97 + 0.03*rng.Float64()
		}
		if mw := MannWhitney(s, c); mw.P > 0.001 {
			t.Fatalf("rep %d: MW p = %v on fully separated samples", r, mw.P)
		}
		if ks := KolmogorovSmirnov(s, c); ks.P > 0.001 {
			t.Fatalf("rep %d: KS p = %v on fully separated samples", r, ks.P)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if p := MannWhitney(nil, []float64{1, 2}).P; p != 1 {
		t.Errorf("empty x: p = %v, want 1", p)
	}
	if p := KolmogorovSmirnov([]float64{1}, nil).P; p != 1 {
		t.Errorf("empty y: p = %v, want 1", p)
	}
	same := []float64{3, 3, 3, 3}
	if p := MannWhitney(same, same).P; p != 1 {
		t.Errorf("all tied: p = %v, want 1", p)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("median of empty = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
