// The three per-unit benchmarks whose reported metrics come from a
// reduced experiment run (the root bench_test.go holds the other three
// readings no harness reports): the fixture is built once per binary,
// then each op is one classification, one cloak frame round trip or one
// audit decision.
//
//	go test -run '^$' -bench 'DPIClassify|CloakFrame|AuditTrial' -benchmem ./internal/eval
package eval

import (
	"sync"
	"testing"

	"netneutral/internal/audit"
	"netneutral/internal/cloak"
	"netneutral/internal/dpi"
)

// dpiBench is the fixture behind BenchmarkDPIClassify and
// BenchmarkCloakFrame: a classifier trained on one reduced arms run,
// held-out labeled vectors with the accuracy measured on them, and the
// cloak overhead measured on a cloaked run — the numbers those
// benchmarks report as "acc" and "xreal".
type dpiBench struct {
	cls *dpi.Classifier
	// samples are held-out labeled vectors (encrypted, uncloaked).
	samples []dpi.Sample
	// accuracy is the classifier's score on samples.
	accuracy float64
	// cloakOverhead is wire bytes per real byte under the E7 cloak.
	cloakOverhead float64
}

// newDPIBench builds the fixture from three reduced passive runs:
// train, held-out evaluation, and cloaked cost measurement.
func newDPIBench() (*dpiBench, error) {
	cfg := calibrationConfig(42)
	cls, _, err := trainClassifier(cfg)
	if err != nil {
		return nil, err
	}
	heldOut, _, err := armsSamples(cfg, ModeEncrypted, 9)
	if err != nil {
		return nil, err
	}
	correct := 0
	for i := range heldOut {
		if got, _ := cls.ClassifyVec(&heldOut[i].Vec); got == heldOut[i].Class {
			correct++
		}
	}
	_, cloaked, err := armsSamples(cfg, ModeCloaked, 10)
	if err != nil {
		return nil, err
	}
	return &dpiBench{
		cls:           cls,
		samples:       heldOut,
		accuracy:      float64(correct) / float64(len(heldOut)),
		cloakOverhead: cloaked.cell.CloakOverhead,
	}, nil
}

// auditBench is the fixture behind BenchmarkAuditTrial: one reduced E8
// run's measured detection power (blatant dpi, encrypted interleaved
// probes) and neutral-ISP false-positive rate — the numbers the
// benchmark reports as "power" and "fpr" — plus one blatant-dpi vantage
// report for the per-decision benchmark op.
type auditBench struct {
	// power is detection power against blatant dpi throttling.
	power float64
	// fpr is the neutral-ISP false-positive rate.
	fpr float64
	// report is one outside vantage's report from the blatant dpi cell.
	report *audit.Report
}

// newAuditBench runs the reduced audit matrix once and extracts the
// fixture.
func newAuditBench() (*auditBench, error) {
	st, err := RunAudit(AuditConfig{Seed: 7, Vantages: 8, InsideVantages: 2, Trials: 10})
	if err != nil {
		return nil, err
	}
	cell := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	// Pick a vantage that was actually ruled discriminated: the E8
	// contract guarantees power >= 0.9, not that vantage 0 detected.
	idx := 0
	for v := range cell.Summary.Verdicts {
		if cell.Summary.Verdicts[v].Discriminated {
			idx = v
			break
		}
	}
	return &auditBench{power: cell.Summary.Power, fpr: st.FalsePositiveRate(), report: cell.Reports[idx]}, nil
}

// dpiBenchState and auditBenchState hold the fixtures, so the benchmarks
// pay the simulation setup once, not once per b.N round.
var (
	dpiBenchState struct {
		once sync.Once
		fix  *dpiBench
		err  error
	}
	auditBenchState struct {
		once sync.Once
		fix  *auditBench
		err  error
	}
)

func dpiFixture(b *testing.B) *dpiBench {
	b.Helper()
	dpiBenchState.once.Do(func() {
		dpiBenchState.fix, dpiBenchState.err = newDPIBench()
	})
	if dpiBenchState.err != nil {
		b.Fatal(dpiBenchState.err)
	}
	return dpiBenchState.fix
}

func auditFixture(b *testing.B) *auditBench {
	b.Helper()
	auditBenchState.once.Do(func() {
		auditBenchState.fix, auditBenchState.err = newAuditBench()
	})
	if auditBenchState.err != nil {
		b.Fatal(auditBenchState.err)
	}
	return auditBenchState.fix
}

// BenchmarkDPIClassify measures one flow classification (feature
// vector against all trained profiles) and reports the classifier's
// held-out accuracy on encrypted-but-uncloaked app traffic as the
// "acc" metric (E7 requires >= 0.90). Must be 0 allocs/op (dpi's
// TestObserveExistingFlowZeroAlloc covers the periodic classification).
func BenchmarkDPIClassify(b *testing.B) {
	fix := dpiFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if class, _ := fix.cls.ClassifyVec(&fix.samples[i%len(fix.samples)].Vec); class == dpi.ClassUnknown {
			b.Fatal("classifier returned unknown")
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.accuracy, "acc")
}

// BenchmarkCloakFrame measures the cloak encode+decode round trip on a
// VoIP-size payload (reused buffer, 0 allocs/op) and reports the
// measured E7 cloak goodput overhead (wire bytes per real byte) as the
// "xreal" metric.
func BenchmarkCloakFrame(b *testing.B) {
	fix := dpiFixture(b)
	payload := make([]byte, 160)
	buf := make([]byte, 0, cloak.FrameSize)
	b.SetBytes(160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cloak.AppendFrame(buf[:0], payload)
		got, cover, err := cloak.DecodeFrame(buf)
		if err != nil || cover || len(got) != len(payload) {
			b.Fatalf("round trip: %d bytes cover=%v err=%v", len(got), cover, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.cloakOverhead, "xreal")
}

// BenchmarkAuditTrial measures one full per-vantage audit decision —
// goodput and delay sample extraction, Mann-Whitney, Kolmogorov-
// Smirnov and exceedance tests, effect gates — on a real blatant-dpi
// vantage report, and reports the fixture's measured detection power
// ("power", the audit_detection_power check, >= 0.90) and neutral-ISP
// false-positive rate ("fpr", audit_false_positive_rate, <= 0.05).
func BenchmarkAuditTrial(b *testing.B) {
	fix := auditFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := audit.Decide(fix.report); !v.Discriminated {
			b.Fatal("blatant-dpi vantage report not ruled discriminated")
		}
	}
	b.StopTimer()
	b.ReportMetric(fix.power, "power")
	b.ReportMetric(fix.fpr, "fpr")
}
