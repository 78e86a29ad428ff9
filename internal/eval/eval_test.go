package eval

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/netem"
)

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := e.Run(Scale{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || len(res.Rows) == 0 {
		t.Fatalf("%s: malformed result %+v", id, res)
	}
	if res.String() == "" {
		t.Errorf("%s: empty rendering", id)
	}
	return res
}

func row(t *testing.T, res *Result, metric string) Row {
	t.Helper()
	for _, r := range res.Rows {
		if r.Metric == metric {
			return r
		}
	}
	t.Fatalf("%s: no row %q (have %v)", res.ID, metric, res.Rows)
	return Row{}
}

func parseKpps(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, " kpps")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E13", "F1", "F2", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(strings.ToLower(id)); !ok {
			t.Errorf("ByID(%q) case-insensitive lookup failed", id)
		}
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("unknown id found")
	}
}

func TestE1KeySetupRate(t *testing.T) {
	res := runExp(t, "E1")
	rate := parseKpps(t, row(t, res, "key-setup responses").Measured)
	// Loose bound: this test may share the machine with the benchmark
	// suite, so it asserts plausibility, not performance (benchmarks
	// measure that).
	if rate <= 0.05 {
		t.Errorf("key setup rate = %v kpps, implausibly low", rate)
	}
}

func TestE2Derivation(t *testing.T) {
	res := runExp(t, "E2")
	r := row(t, res, "sources per epoch")
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.Measured, " M"), 64)
	if err != nil || v <= 1 {
		t.Errorf("sources per epoch = %q (err %v)", r.Measured, err)
	}
}

func TestE3Shape(t *testing.T) {
	res := runExp(t, "E3")
	van := parseKpps(t, row(t, res, "vanilla forwarding (CPU)").Measured)
	for _, half := range []string{"neutralized, first packet of a flow (miss) (CPU)", "neutralized, established flow (hit) (CPU)"} {
		data := parseKpps(t, row(t, res, half).Measured)
		if data <= 0 || van <= 0 {
			t.Fatal("zero rates")
		}
		if van <= data {
			t.Errorf("vanilla (%v) should outrun %s (%v)", van, half, data)
		}
	}
	// The headline shape: key setup (E1) is 1-2 orders below the data
	// path — checked in TestShapeE1BelowE3.
}

func TestShapeE1BelowE3(t *testing.T) {
	if raceEnabled {
		t.Skip("relative rates are distorted by race instrumentation")
	}
	e1 := runExp(t, "E1")
	e3 := runExp(t, "E3")
	setup := parseKpps(t, row(t, e1, "key-setup responses").Measured)
	data := parseKpps(t, row(t, e3, "neutralized, first packet of a flow (miss) (CPU)").Measured)
	// Ratio is robust to machine load (both sides slow down together),
	// but keep headroom for scheduling noise.
	if data < 2*setup {
		t.Errorf("data path (%v kpps) should be well above key setup (%v kpps)", data, setup)
	}
}

// TestE5ComparesPoolOutputs: E5's statelessness row is earned by
// comparing each pool batch's outputs with the serial pass's, in any
// order but byte for byte.
func TestE5ComparesPoolOutputs(t *testing.T) {
	note := row(t, runExp(t, "E5"), "statelessness").Note
	if !strings.Contains(note, "each pool batch's 256 outputs at 1, 2 and 4 workers = the serial pass's") {
		t.Errorf("statelessness note %q does not say what it compared", note)
	}
	a, b, c := []byte{1, 2}, []byte{3}, []byte{3, 0}
	set := func(pkts ...[]byte) []string {
		outs := make([]core.Outgoing, len(pkts))
		for i, p := range pkts {
			outs[i].Pkt = p
		}
		return outputMultiset(outs)
	}
	if !slices.Equal(set(a, b), set(b, a)) || slices.Equal(set(a, b), set(a, c)) || slices.Equal(set(a, b), set(a, b, b)) {
		t.Error("outputMultiset is not the batch's packets as a multiset")
	}
}

func TestE4CryptoCapacity(t *testing.T) {
	res := runExp(t, "E4")
	r := row(t, res, "keyed hash (AES CBC-MAC)")
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.Measured, " M ops/s"), 64)
	if err != nil || v < 0.05 {
		t.Errorf("crypto rate = %q (err %v), want >= 0.05M", r.Measured, err)
	}
}

func TestF1Targetability(t *testing.T) {
	res := runExp(t, "F1")
	if got := row(t, res, "plain: delivered to targeted customer").Measured; got != "0/20" {
		t.Errorf("plain delivery = %s, want 0/20", got)
	}
	if got := row(t, res, "neutralized: delivered to targeted customer").Measured; got != "20/20" {
		t.Errorf("neutralized delivery = %s, want 20/20", got)
	}
	if got := row(t, res, "neutralized: classifier hits").Measured; got != "0" {
		t.Errorf("classifier hits = %s, want 0", got)
	}
	if got := row(t, res, "neutralized: ISP saw customer address").Measured; got != "false" {
		t.Errorf("address visibility = %s, want false", got)
	}
}

func TestF2ProtocolWalk(t *testing.T) {
	res := runExp(t, "F2")
	for _, r := range res.Rows {
		if r.Measured != "pass" {
			t.Errorf("F2 step %q = %s", r.Metric, r.Measured)
		}
	}
}

// A row pass words FAIL fails its experiment with an error that names
// the row; a result with none is returned as it is.
func TestFailRowFailsExperiment(t *testing.T) {
	ok := &Result{ID: "A8", Rows: []Row{{Metric: "neutralizer preserves DSCP", Measured: pass(true)},
		{Metric: "EF vs BE delivery under 2x congestion", Measured: "40 vs 20"}}}
	if res, err := passed(ok); res != ok || err != nil {
		t.Fatalf("passed(every row pass) = %v, %v; want the result, nil", res, err)
	}
	bad := &Result{ID: "F2", Rows: []Row{{Metric: "2a: setup yields provisional (nonce, Ks)", Measured: pass(true)},
		{Metric: "no payload visible in AT&T", Measured: pass(false)}}}
	if res, err := passed(bad); res != nil || err == nil || !strings.Contains(err.Error(), "no payload visible in AT&T") {
		t.Fatalf("passed(a FAIL row) = %v, %v; want an error naming the row", res, err)
	}
}

func TestA1AlternativeSlower(t *testing.T) {
	res := runExp(t, "A1")
	chosen := parseKpps(t, row(t, res, "chosen design (RSA encrypt, e=3)").Measured)
	alt := parseKpps(t, row(t, res, "alternative (RSA decrypt)").Measured)
	if chosen <= alt {
		t.Errorf("chosen (%v) must beat alternative (%v): the §3.2 argument", chosen, alt)
	}
}

func TestA2OffloadFaster(t *testing.T) {
	res := runExp(t, "A2")
	local := parseKpps(t, row(t, res, "local RSA encryption").Measured)
	off := parseKpps(t, row(t, res, "offloaded (stamp + forward)").Measured)
	if off <= local {
		t.Errorf("offloaded (%v) must beat local (%v)", off, local)
	}
}

func TestA3OnionContrast(t *testing.T) {
	res := runExp(t, "A3")
	if got := row(t, res, "relay PK ops for 200 flows").Measured; got != "600" {
		t.Errorf("onion PK ops = %s, want 600 (3 per circuit)", got)
	}
	if got := row(t, res, "relay state entries").Measured; got != "600" {
		t.Errorf("onion state = %s, want 600", got)
	}
	if got := row(t, res, "neutralizer per-flow state").Measured; got != "0" {
		t.Errorf("neutralizer state = %s, want 0", got)
	}
}

func TestA4VoIPMOS(t *testing.T) {
	res := runExp(t, "A4")
	parse := func(m string) float64 {
		v, err := strconv.ParseFloat(m, 64)
		if err != nil {
			t.Fatalf("MOS %q: %v", m, err)
		}
		return v
	}
	own := parse(row(t, res, "ISP's own VoIP MOS").Measured)
	degraded := parse(row(t, res, "competitor VoIP MOS, no neutralizer").Measured)
	cured := parse(row(t, res, "competitor VoIP MOS, neutralized").Measured)
	if own < 4.0 {
		t.Errorf("own MOS = %v, want >= 4.0", own)
	}
	if degraded > 3.5 {
		t.Errorf("degraded MOS = %v, should be user-visible damage (< 3.5)", degraded)
	}
	if cured < own-0.5 {
		t.Errorf("neutralized MOS = %v, should be close to own (%v)", cured, own)
	}
	if cured-degraded < 0.5 {
		t.Errorf("neutralizer should visibly improve MOS: %v -> %v", degraded, cured)
	}
}

func TestA5Pushback(t *testing.T) {
	res := runExp(t, "A5")
	if got := row(t, res, "pushback deployed (aggregate identified)").Measured; got != "true" {
		t.Fatalf("pushback deployed = %s", got)
	}
	parse := func(s string) int {
		v, err := strconv.Atoi(strings.Split(s, "/")[0])
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	before := parse(row(t, res, "legit goodput during flood").Measured)
	after := parse(row(t, res, "legit goodput after pushback").Measured)
	if after <= before {
		t.Errorf("goodput %d -> %d: pushback must help", before, after)
	}
	if after < 45 {
		t.Errorf("goodput after pushback = %d/50, want near-complete", after)
	}
}

func TestA6Multihoming(t *testing.T) {
	res := runExp(t, "A6")
	// Static should put everything on the fast provider (it is first).
	if got := row(t, res, "static: fast/slow split").Measured; got != "60/0" {
		t.Errorf("static split = %s", got)
	}
	if got := row(t, res, "round-robin: fast/slow split").Measured; got != "30/30" {
		t.Errorf("round-robin split = %s", got)
	}
	// Weighted should prefer fast heavily.
	parts := strings.Split(row(t, res, "latency-weighted: fast/slow split").Measured, "/")
	fast, _ := strconv.Atoi(parts[0])
	if fast < 35 {
		t.Errorf("weighted fast share = %d/60, want majority", fast)
	}
	// Trial-and-error survives provider failure.
	tae := row(t, res, "trial-and-error: probes answered despite provider failure").Measured
	ok, _ := strconv.Atoi(strings.Split(tae, "/")[0])
	if ok < 55 {
		t.Errorf("trial-and-error answered %d/60", ok)
	}
}

func TestA7DNS(t *testing.T) {
	res := runExp(t, "A7")
	parseDur := func(s string) float64 {
		r := row(t, res, s)
		d, err := parseDuration(r.Measured)
		if err != nil {
			t.Fatalf("%q: %v", r.Measured, err)
		}
		return d
	}
	target := parseDur("plaintext lookup of targeted name")
	other := parseDur("plaintext lookup of paying site")
	enc := parseDur("encrypted lookup of targeted name")
	if target < 0.5 {
		t.Errorf("targeted plaintext lookup = %vs, want >= 0.5s", target)
	}
	if other > 0.1 || enc > 0.1 {
		t.Errorf("untargeted/encrypted lookups should be fast: %vs %vs", other, enc)
	}
}

func parseDuration(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}

func TestA8QoS(t *testing.T) {
	res := runExp(t, "A8")
	for _, m := range []string{
		"neutralizer preserves DSCP",
		"per-flow reservation on anycast traffic",
		"per-flow reservation with dynamic addresses",
	} {
		if got := row(t, res, m).Measured; got != "pass" {
			t.Errorf("%s = %s", m, got)
		}
	}
	ef := row(t, res, "EF vs BE delivery under 2x congestion").Measured
	parts := strings.Split(ef, " vs ")
	efN, _ := strconv.Atoi(parts[0])
	beN, _ := strconv.Atoi(parts[1])
	if efN <= beN {
		t.Errorf("EF=%d BE=%d", efN, beN)
	}
}

// TestE6MetroSmall exercises the metro path at reduced scale so the
// default test run (and -race) stays fast; TestE6FullScale runs the
// registered 10k-host experiment.
func TestE6MetroSmall(t *testing.T) {
	var sim *netem.Simulator
	st, err := RunMetro(MetroConfig{Hosts: 1200, Seed: 3, Duration: 200 * time.Millisecond, RatePps: 20000,
		Attach: func(s *netem.Simulator) { sim = s }})
	if err != nil {
		t.Fatal(err)
	}
	// drive reads the fluid totals of every run; reading them must not
	// give a fluid-less run's registry (so its final digest) a family.
	if st.FluidBytes != 0 || st.FluidTicks != 0 {
		t.Errorf("fluid-less metro reports fluid load: bytes=%d ticks=%d", st.FluidBytes, st.FluidTicks)
	}
	for _, m := range sim.Metrics().Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "netem_fluid_") {
			t.Errorf("fluid-less metro's registry gained %s", m.Name)
		}
	}
	if st.Sent == 0 || st.Delivered != uint64(st.Sent) {
		t.Fatalf("delivered %d of %d", st.Delivered, st.Sent)
	}
	if st.ClassifierHits != 0 {
		t.Errorf("classifier hits = %d, want 0 (neutralized traffic untargetable)", st.ClassifierHits)
	}
	if st.SimEvents == 0 || st.EventsPerSec <= 0 {
		t.Errorf("engine counters missing: events=%d rate=%v", st.SimEvents, st.EventsPerSec)
	}
	// The pool must recycle: far fewer buffer allocations than checkouts.
	if st.PoolAllocated*10 > st.PoolGets {
		t.Errorf("pool allocated %d for %d gets: recycling broken", st.PoolAllocated, st.PoolGets)
	}
}

func TestE6FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("10k-host run is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E6")
	if got := row(t, res, "classifier hits at transit").Measured; got != "0" {
		t.Errorf("classifier hits = %s", got)
	}
	del := row(t, res, "packets delivered").Measured
	parts := strings.Split(del, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("delivery = %s, want all", del)
	}
}
