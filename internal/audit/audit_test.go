package audit

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

// synthReport builds a report whose suspect goodput is drawn around
// sMean and control around cMean.
func synthReport(trials int, sMean, cMean float64, rng *rand.Rand) *Report {
	r := &Report{Strategy: StrategyInterleaved, Trials: make([]Trial, trials)}
	means := [NumRoles]float64{RoleSuspect: sMean, RoleControl: cMean}
	for i := range r.Trials {
		t := &r.Trials[i]
		for role := Role(0); role < NumRoles; role++ {
			mean := means[role]
			sent := uint64(40_000 + rng.Intn(5_000))
			g := mean + 0.02*(rng.Float64()-0.5)
			if g < 0 {
				g = 0
			}
			if g > 1 {
				g = 1
			}
			t.Sent[role] = sent
			t.Delivered[role] = uint64(g * float64(sent))
			t.DelayPkts[role] = 50
			t.DelaySum[role] = int64(50 * 4 * time.Millisecond)
		}
	}
	return r
}

func TestDecideBlatantThrottle(t *testing.T) {
	r := synthReport(12, 0.1, 0.99, rand.New(rand.NewSource(2)))
	v := Decide(r)
	if !v.Discriminated || !v.GoodputHit {
		t.Fatalf("90%%-drop differential not detected: %+v", v)
	}
	if v.GoodputMW.P > 0.001 {
		t.Errorf("MW p = %v, want decisive", v.GoodputMW.P)
	}
	if v.Gap < 0.8 {
		t.Errorf("gap = %.2f, want ~0.9", v.Gap)
	}
}

func TestDecideNeutralPath(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := synthReport(12, 0.99, 0.99, rand.New(rand.NewSource(seed)))
		if v := Decide(r); v.Discriminated {
			t.Fatalf("seed %d: false positive on identical distributions: %+v", seed, v)
		}
	}
}

func TestDecideDutyCycledThrottle(t *testing.T) {
	// Half the trials degraded, half clean: bimodal suspect vs steady
	// control — the shape KS exists for.
	rng := rand.New(rand.NewSource(3))
	r := synthReport(12, 0.99, 0.99, rng)
	for i := 0; i < len(r.Trials); i += 2 {
		r.Trials[i].Delivered[RoleSuspect] = uint64(0.1 * float64(r.Trials[i].Sent[RoleSuspect]))
	}
	v := Decide(r)
	if !v.Discriminated {
		t.Fatalf("duty-cycled differential not detected: MW p=%v KS p=%v gap=%.2f",
			v.GoodputMW.P, v.GoodputKS.P, v.Gap)
	}
}

func TestDecideDelayOnlyThrottle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := synthReport(12, 0.99, 0.99, rng)
	for i := range r.Trials {
		r.Trials[i].DelaySum[RoleSuspect] = int64(50 * 40 * time.Millisecond) // 10x control
	}
	v := Decide(r)
	if !v.Discriminated || !v.DelayHit || v.GoodputHit {
		t.Fatalf("delay-only differential: %+v", v)
	}
}

func TestDecideThinReportNeverConvicts(t *testing.T) {
	r := synthReport(3, 0.0, 1.0, rand.New(rand.NewSource(5)))
	if v := Decide(r); v.Discriminated {
		t.Fatal("3-trial report convicted; minTrials must gate")
	}
}

func TestSummarizeLocalization(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mk := func(inside, throttled bool) *Report {
		s := 0.99
		if throttled {
			s = 0.1
		}
		r := synthReport(12, s, 0.99, rng)
		r.Inside = inside
		return r
	}
	// Transit-side throttler: all outside vantages see it, inside none.
	var reports []*Report
	for i := 0; i < 8; i++ {
		reports = append(reports, mk(false, true))
	}
	for i := 0; i < 4; i++ {
		reports = append(reports, mk(true, false))
	}
	s := Summarize(reports)
	if !s.Discriminating || s.Power < 0.99 || s.Localized != SegmentBeyondBorder {
		t.Fatalf("transit throttler: %+v", s)
	}
	// Inside throttler: both classes see it.
	reports = reports[:0]
	for i := 0; i < 8; i++ {
		reports = append(reports, mk(false, true))
	}
	for i := 0; i < 4; i++ {
		reports = append(reports, mk(true, true))
	}
	if s := Summarize(reports); s.Localized != SegmentInside {
		t.Fatalf("inside throttler localized %v", s.Localized)
	}
	// Neutral.
	reports = reports[:0]
	for i := 0; i < 8; i++ {
		reports = append(reports, mk(false, false))
	}
	s = Summarize(reports)
	if s.Discriminating || s.Localized != SegmentNone || s.Power != 0 {
		t.Fatalf("neutral: %+v", s)
	}
	// Partial throttler: 3 of 8 outside vantages targeted — diluted
	// power must still convict through aggregation.
	reports = reports[:0]
	for i := 0; i < 8; i++ {
		reports = append(reports, mk(false, i < 3))
	}
	s = Summarize(reports)
	if !s.Discriminating {
		t.Fatalf("partial throttler (power %.2f) not convicted by aggregate", s.Power)
	}
}

func TestReportWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, trials := range []int{0, 1, 12, 64} {
		r := synthReport(trials, 0.5, 0.9, rng)
		r.Vantage = uint16(trials * 7)
		r.Inside = trials%2 == 0
		r.Strategy = StrategyNaive
		wireB, err := AppendReport(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReport(wireB)
		if err != nil {
			t.Fatalf("trials=%d: %v", trials, err)
		}
		if got.Vantage != r.Vantage || got.Inside != r.Inside || got.Strategy != r.Strategy || len(got.Trials) != trials {
			t.Fatalf("header mismatch: %+v vs %+v", got, r)
		}
		for i := range got.Trials {
			if got.Trials[i] != r.Trials[i] {
				t.Fatalf("trial %d mismatch", i)
			}
		}
		// Canonical: re-encode must be byte-identical.
		again, err := AppendReport(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireB, again) {
			t.Fatal("re-encode not canonical")
		}
	}
}

func TestDecodeReportRejects(t *testing.T) {
	good, err := AppendReport(nil, synthReport(2, 0.5, 0.9, rand.New(rand.NewSource(8))))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:5],
		"bad magic":      append([]byte{0x00}, good[1:]...),
		"bad version":    append([]byte{reportMagic, 99}, good[2:]...),
		"reserved flags": {reportMagic, reportVersion, 0, 0, 0xF0, 0, 0},
		"truncated body": good[:len(good)-1],
		"trailing junk":  append(append([]byte{}, good...), 0xEE),
		"huge count":     {reportMagic, reportVersion, 0, 0, 0, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if _, err := DecodeReport(b); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func TestProbePayloadRoundTrip(t *testing.T) {
	b := make([]byte, 160)
	PutProbePayload(b, RoleControl, 37, 123456789)
	role, trial, nanos, ok := ParseProbePayload(b)
	if !ok || role != RoleControl || trial != 37 || nanos != 123456789 {
		t.Fatalf("round trip: %v %v %v %v", role, trial, nanos, ok)
	}
	if _, _, _, ok := ParseProbePayload(b[:ProbeHeaderLen-1]); ok {
		t.Error("short payload accepted")
	}
	b[0] = 99
	if _, _, _, ok := ParseProbePayload(b); ok {
		t.Error("unknown role accepted")
	}
}

// proberWorld runs one prober over a 3-node line with a transit hook,
// plain UDP, and returns the report.
func proberWorld(t *testing.T, strategy Strategy, hook netem.TransitHook) *Report {
	t.Helper()
	sim := netem.NewSimulator(time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC), 9)
	src := sim.MustAddNode("src", "out", netip.MustParseAddr("172.16.0.2"))
	r := sim.MustAddNode("r", "transit")
	dst := sim.MustAddNode("dst", "cust", netip.MustParseAddr("10.9.0.1"))
	sim.Connect(src, r, netem.LinkConfig{Delay: time.Millisecond, QueueLen: 1024})
	sim.Connect(r, dst, netem.LinkConfig{Delay: time.Millisecond, QueueLen: 1024})
	sim.BuildRoutes()
	if hook != nil {
		r.AddTransitHook(hook)
	}

	var p *Prober
	emit := func(role Role, trial int, size int) {
		payload := make([]byte, size)
		PutProbePayload(payload, role, trial, sim.NowNanos())
		buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
		buf.PushPayload(payload)
		if err := wire.SerializeLayers(buf,
			&wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, Src: src.Addr(), Dst: dst.Addr()},
			&wire.UDP{SrcPort: 9000, DstPort: 9001},
		); err != nil {
			t.Fatal(err)
		}
		_ = src.Send(buf.Bytes())
	}
	var err error
	p, err = NewProber(ProberConfig{
		On:       sim,
		Rng:      rand.New(rand.NewSource(10)),
		Strategy: strategy,
		Trials:   12,
		Emit:     emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst.SetHandler(func(now time.Time, pkt []byte) {
		var ip wire.IPv4
		if ip.DecodeFromBytes(pkt) != nil {
			return
		}
		if len(ip.Payload()) <= wire.UDPHeaderLen {
			return
		}
		p.HandleProbe(now, ip.Payload()[wire.UDPHeaderLen:])
	})
	p.Run()
	sim.Run()
	return p.Report(0, false)
}

func TestProberNeutralPathMeasuresClean(t *testing.T) {
	for _, strat := range []Strategy{StrategyInterleaved, StrategyNaive} {
		r := proberWorld(t, strat, nil)
		sg := r.GoodputSamples(RoleSuspect)
		cg := r.GoodputSamples(RoleControl)
		if len(sg) != 12 || len(cg) != 12 {
			t.Fatalf("%v: %d/%d goodput samples, want 12 each", strat, len(sg), len(cg))
		}
		for i := range sg {
			if sg[i] < 0.99 || cg[i] < 0.99 {
				t.Fatalf("%v trial %d: lossless path measured %.2f/%.2f", strat, i, sg[i], cg[i])
			}
		}
		if v := Decide(r); v.Discriminated {
			t.Fatalf("%v: false positive on a neutral line: %+v", strat, v)
		}
		ds := r.DelaySamples(RoleSuspect)
		if len(ds) != 12 {
			t.Fatalf("%v: %d delay samples", strat, len(ds))
		}
		for _, d := range ds {
			if d < 0.0019 || d > 0.0021 {
				t.Fatalf("%v: one-way delay %.4fs, want ~2ms", strat, d)
			}
		}
	}
}

func TestProberDetectsSuspectDropper(t *testing.T) {
	drop := rand.New(rand.NewSource(11))
	hook := func(now time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		const payloadOff = wire.IPv4HeaderLen + wire.UDPHeaderLen
		if len(pkt) > payloadOff && Role(pkt[payloadOff]) == RoleSuspect && drop.Float64() < 0.9 {
			return netem.Verdict{Drop: true}
		}
		return netem.Deliver
	}
	for _, strat := range []Strategy{StrategyInterleaved, StrategyNaive} {
		r := proberWorld(t, strat, hook)
		v := Decide(r)
		if !v.Discriminated || !v.GoodputHit {
			t.Fatalf("%v: 90%% suspect drop not detected: gap=%.2f MW p=%v", strat, v.Gap, v.GoodputMW.P)
		}
	}
}

func TestProberNaiveFreshFlowsPerTrial(t *testing.T) {
	sim := netem.NewSimulator(time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC), 9)
	type fk struct {
		role  Role
		trial int
	}
	counts := map[fk]int{}
	p, err := NewProber(ProberConfig{
		On:       sim,
		Rng:      rand.New(rand.NewSource(12)),
		Strategy: StrategyNaive,
		Trials:   5,
		Emit:     func(role Role, trial int, size int) { counts[fk{role, trial}]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run()
	sim.Run()
	for trial := 0; trial < 5; trial++ {
		for role := Role(0); role < NumRoles; role++ {
			if got := counts[fk{role, trial}]; got != NaivePackets {
				t.Errorf("trial %d role %v: %d emissions, want %d", trial, role, got, NaivePackets)
			}
		}
	}
}
