package eval

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/core"
	"netneutral/internal/dpi"
	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
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

// goodArms, goodAudit and goodRealProto are E7, E8 and E10 outcomes
// every claim holds on, built by hand: no experiment runs.
func goodArms() *ArmsStats {
	voip, video := int(trafficgen.AppVoIP), int(trafficgen.AppVideo)
	st := &ArmsStats{}
	for _, adv := range []ArmsAdversary{AdvPortRule, AdvDPI} {
		for _, mode := range []ArmsMode{ModePlaintext, ModeEncrypted, ModeCloaked} {
			c := ArmsCell{Mode: mode, Adversary: adv, Accuracy: 1, CloakOverhead: 1}
			c.Goodput[voip] = 1
			st.Cells = append(st.Cells, c)
		}
	}
	pp := st.Cell(ModePlaintext, AdvPortRule)
	pp.PortHits, pp.Goodput[voip] = 80, 0.1
	de := st.Cell(ModeEncrypted, AdvDPI)
	de.Goodput[voip], de.Goodput[video], de.DPIPoliced = 0.2, 0.7, 600
	dc := st.Cell(ModeCloaked, AdvDPI)
	dc.Accuracy, dc.CloakOverhead = 0.25, 4
	return st
}

func goodAudit() *AuditStats {
	st := &AuditStats{}
	for kind := ISPNeutral; kind < NumAuditISPs; kind++ {
		for _, mode := range []ArmsMode{ModePlaintext, ModeEncrypted} {
			for _, strat := range []audit.Strategy{audit.StrategyNaive, audit.StrategyInterleaved} {
				c := AuditCell{ISP: kind, Mode: mode, Strategy: strat, Obs: &ObsDigest{}}
				c.Summary.Outside, c.Summary.Inside, c.Summary.Localized = 4, 2, audit.SegmentBeyondBorder
				// Every outside vantage convicts every throttler, except
				// where the claim is that it goes unseen: a port rule under
				// encrypted probes, an evasive throttler under naive bursts.
				if kind != ISPNeutral && !(kind == ISPPortRule && mode == ModeEncrypted) && !(kind == ISPDPIEvasion && strat == audit.StrategyNaive) {
					c.Summary.Power, c.Summary.OutsideDetected, c.Summary.Discriminating = 1, 4, true
				}
				st.Cells = append(st.Cells, c)
			}
		}
	}
	// The traced blatant conviction: 5ms of policing per delayed packet
	// explains the 5ms delay gap each convicting vantage measured.
	sum := &st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved).Summary
	sum.Evidence = audit.EvidenceTrail{{Drops: 9, Delayed: 2, PolicyDelay: 10 * time.Millisecond}}
	for i := 0; i < sum.Outside; i++ {
		sum.Verdicts = append(sum.Verdicts, audit.Verdict{Discriminated: true, SuspectDelay: 0.007, ControlDelay: 0.002})
	}
	return st
}

func goodRealProto() *RealProtoStats {
	st := &RealProtoStats{
		DNS:            realDNSResult{PlainRTT: 4 * time.Millisecond, EncRTT: 4 * time.Millisecond, NXDomainOK: true, TimeoutOK: true, Queries: 3, Encrypted: 1},
		HTTP:           realHTTPResult{OK: 12, Want: 12, Flows: realClients},
		Throttled:      audit.Verdict{Discriminated: true, DelayHit: true},
		NeutralTrace:   RealTraceCheck{Journeys: 100},
		ThrottledTrace: RealTraceCheck{Journeys: 100, Throttled: 3, ThrottleDelay: 60 * time.Millisecond},
	}
	st.HTTP.Hist[dpi.ClassWeb] = realClients
	return st
}

// TestFailRowFailsExperiment: each claim E7, E8 and E10 enforce is
// stated by one row, and breaking the claim's input fails that row, so
// Result.Err names it.
func TestFailRowFailsExperiment(t *testing.T) {
	type flip struct {
		name, row string
		result    func() *Result
	}
	arms := func(name, row string, f func(*ArmsStats)) flip {
		return flip{name, row, func() *Result { st := goodArms(); f(st); return st.Result() }}
	}
	aud := func(name, row string, f func(*AuditStats)) flip {
		return flip{name, row, func() *Result { st := goodAudit(); f(st); return st.Result() }}
	}
	rp := func(name, row string, f func(*RealProtoStats)) flip {
		return flip{name, row, func() *Result { st := goodRealProto(); f(st); return st.Result() }}
	}
	voip, video := int(trafficgen.AppVoIP), int(trafficgen.AppVideo)
	cell := func(st *AuditStats, kind AuditISP, mode ArmsMode, strat audit.Strategy) *audit.Summary {
		return &st.Cell(kind, mode, strat).Summary
	}
	const (
		naive, inter = audit.StrategyNaive, audit.StrategyInterleaved
		blatant      = "blatant dpi throttle: power"
		armsPort     = "port rule vs encrypted: voip goodput"
		armsVideo    = "dpi vs encrypted: video goodput"
		dnsRTT       = "dns lookup rtt over simnet (plain / encrypted)"
		trace        = "trace attribution invariant"
	)
	cases := []flip{
		arms("port rule misses plaintext", "port rule vs plaintext: voip goodput", func(s *ArmsStats) { s.Cell(ModePlaintext, AdvPortRule).PortHits = 0 }),
		arms("plaintext voip survives port rule", "port rule vs plaintext: voip goodput", func(s *ArmsStats) { s.Cell(ModePlaintext, AdvPortRule).Goodput[voip] = 0.6 }),
		arms("port rule matches encrypted", armsPort, func(s *ArmsStats) { s.Cell(ModeEncrypted, AdvPortRule).PortHits = 1 }),
		arms("encrypted voip lost to port rule", armsPort, func(s *ArmsStats) { s.Cell(ModeEncrypted, AdvPortRule).Goodput[voip] = 0.8 }),
		arms("port rule matches cloaked", armsPort, func(s *ArmsStats) { s.Cell(ModeCloaked, AdvPortRule).PortHits = 1 }),
		arms("cloaked voip lost to port rule", armsPort, func(s *ArmsStats) { s.Cell(ModeCloaked, AdvPortRule).Goodput[voip] = 0.8 }),
		arms("dpi misses plaintext", "dpi accuracy vs plaintext", func(s *ArmsStats) { s.Cell(ModePlaintext, AdvDPI).Accuracy = 0.8 }),
		arms("dpi misses encrypted", "dpi accuracy vs encrypted", func(s *ArmsStats) { s.Cell(ModeEncrypted, AdvDPI).Accuracy = 0.8 }),
		arms("encrypted voip survives dpi", "dpi vs encrypted: voip goodput", func(s *ArmsStats) { s.Cell(ModeEncrypted, AdvDPI).Goodput[voip] = 0.5 }),
		arms("encrypted video not policed", armsVideo, func(s *ArmsStats) { s.Cell(ModeEncrypted, AdvDPI).DPIPoliced = 0 }),
		arms("encrypted video not throttled", armsVideo, func(s *ArmsStats) { s.Cell(ModeEncrypted, AdvDPI).Goodput[video] = 0.9 }),
		arms("dpi sees through cloak", "dpi accuracy vs cloak", func(s *ArmsStats) { s.Cell(ModeCloaked, AdvDPI).Accuracy = 0.5 }),
		arms("cloaked voip not restored", "dpi vs cloak: voip goodput", func(s *ArmsStats) { s.Cell(ModeCloaked, AdvDPI).Goodput[voip] = 0.6 }),
		arms("cloak costs nothing", "cloak cost: wire bytes / real byte", func(s *ArmsStats) { s.Cell(ModeCloaked, AdvDPI).CloakOverhead = 1 }),

		aud("neutral ISP convicted", "neutral ISP: false-positive rate", func(s *AuditStats) { cell(s, ISPNeutral, ModePlaintext, naive).OutsideDetected = 2 }),
		aud("neutral ISP has evidence", "neutral ISP: false-positive rate", func(s *AuditStats) {
			cell(s, ISPNeutral, ModeEncrypted, inter).Evidence = audit.EvidenceTrail{{Drops: 1}}
		}),
		aud("blatant dpi unseen encrypted", blatant, func(s *AuditStats) { cell(s, ISPDPI, ModeEncrypted, inter).Power = 0.8 }),
		aud("blatant dpi unseen plaintext", blatant, func(s *AuditStats) { cell(s, ISPDPI, ModePlaintext, inter).Power = 0.8 }),
		aud("conviction without drops", blatant, func(s *AuditStats) { cell(s, ISPDPI, ModeEncrypted, inter).Evidence[0].Drops = 0 }),
		aud("conviction without policing delay", blatant, func(s *AuditStats) { cell(s, ISPDPI, ModeEncrypted, inter).Evidence[0].Delayed = 0 }),
		aud("policing delay misses the gap", blatant, func(s *AuditStats) {
			cell(s, ISPDPI, ModeEncrypted, inter).Evidence[0].PolicyDelay = 40 * time.Millisecond
		}),
		aud("blatant dpi localized inside", "blatant dpi: localization", func(s *AuditStats) {
			cell(s, ISPDPI, ModeEncrypted, inter).Localized = audit.SegmentInside
		}),
		aud("inside vantage convicts", "blatant dpi: localization", func(s *AuditStats) { cell(s, ISPDPI, ModeEncrypted, inter).InsideDetected = 1 }),
		aud("port rule unseen plaintext", "port rule vs plaintext probes: power", func(s *AuditStats) { cell(s, ISPPortRule, ModePlaintext, inter).Power = 0.8 }),
		aud("port rule seen encrypted", "port rule vs encrypted probes: power", func(s *AuditStats) { cell(s, ISPPortRule, ModeEncrypted, inter).Power = 0.1 }),
		aud("port rule seen by encrypted bursts", "port rule vs encrypted probes: power", func(s *AuditStats) { cell(s, ISPPortRule, ModeEncrypted, naive).Power = 0.1 }),
		aud("stealth not convicted", "stealth dpi (60% flows, 50% duty): power", func(s *AuditStats) {
			cell(s, ISPDPIStealth, ModeEncrypted, inter).Discriminating = false
		}),
		aud("stealth power too diluted", "stealth dpi (60% flows, 50% duty): power", func(s *AuditStats) { cell(s, ISPDPIStealth, ModeEncrypted, inter).Power = 0.2 }),
		aud("evasion seen by bursts", "probe-evading dpi vs naive bursts: power", func(s *AuditStats) { cell(s, ISPDPIEvasion, ModeEncrypted, naive).Power = 0.2 }),
		aud("evasion unseen by interleaving", "probe-evading dpi vs interleaved probes: power", func(s *AuditStats) {
			cell(s, ISPDPIEvasion, ModeEncrypted, inter).Power = 0.8
		}),

		rp("plain dns rtt", dnsRTT, func(s *RealProtoStats) { s.DNS.PlainRTT = 5 * time.Millisecond }),
		rp("encrypted dns rtt", dnsRTT, func(s *RealProtoStats) { s.DNS.EncRTT = 5 * time.Millisecond }),
		rp("resolver query count", dnsRTT, func(s *RealProtoStats) { s.DNS.Queries = 2 }),
		rp("resolver encrypted count", dnsRTT, func(s *RealProtoStats) { s.DNS.Encrypted = 0 }),
		rp("nxdomain", "dns nxdomain + virtual read deadline", func(s *RealProtoStats) { s.DNS.NXDomainOK = false }),
		rp("read deadline", "dns nxdomain + virtual read deadline", func(s *RealProtoStats) { s.DNS.TimeoutOK = false }),
		rp("http requests", "net/http requests through the neutralizer", func(s *RealProtoStats) { s.HTTP.OK = 11 }),
		rp("tap flows", "E7-trained dpi on real neutralized http", func(s *RealProtoStats) { s.HTTP.Flows = realClients - 1 }),
		rp("unclassified flow", "E7-trained dpi on real neutralized http", func(s *RealProtoStats) { s.HTTP.Hist[dpi.ClassUnknown] = 1 }),
		rp("clean path convicted", "audit verdict: clean path", func(s *RealProtoStats) { s.Neutral.Discriminated = true }),
		rp("throttle unseen", "audit verdict: 20ms targeted throttle", func(s *RealProtoStats) { s.Throttled.Discriminated = false }),
		rp("throttle not on delay", "audit verdict: 20ms targeted throttle", func(s *RealProtoStats) { s.Throttled.DelayHit = false }),
		rp("clean cell untraced", trace, func(s *RealProtoStats) { s.NeutralTrace.Journeys = 0 }),
		rp("clean cell throttled", trace, func(s *RealProtoStats) { s.NeutralTrace.Throttled = 1 }),
		rp("throttled cell clean", trace, func(s *RealProtoStats) { s.ThrottledTrace.Throttled, s.ThrottledTrace.ThrottleDelay = 0, 0 }),
		rp("throttle misattributed", trace, func(s *RealProtoStats) { s.ThrottledTrace.ThrottleDelay += time.Millisecond }),
	}
	for _, good := range []*Result{goodArms().Result(), goodAudit().Result(), goodRealProto().Result()} {
		if err := good.Err(); err != nil {
			t.Fatalf("every claim holds, yet %v", err)
		}
	}
	for _, c := range cases {
		res := c.result()
		err := res.Err()
		r := row(t, res, c.row)
		want := fmt.Sprintf("eval: %s: %q failed: measured %s (paper: %s)", res.ID, c.row, r.Measured, r.Paper)
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v\nwant %s", c.name, err, want)
		}
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
