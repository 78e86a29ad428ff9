package eval

import (
	"reflect"
	"sync"
	"testing"

	"netneutral/internal/audit"
)

// reducedAuditConfig is the CI-smoke-sized E8: every verdict must hold
// here too, since the smoke step and the bench fixture run this size.
func reducedAuditConfig(seed int64) AuditConfig {
	return AuditConfig{Seed: seed, Vantages: 8, InsideVantages: 2, Trials: 10}
}

// reducedAudit is the seed-7 smoke-sized audit with observation on, run
// once for the tests that read it (the matrix is the package's slowest
// run under -race): TestE8AuditReduced checks its verdicts,
// TestGoldenRows its rows and every cell's observation digest.
var reducedAudit = sync.OnceValues(func() (*AuditStats, error) {
	cfg := reducedAuditConfig(7)
	cfg.Observe = true
	return RunAudit(cfg)
})

// TestE8AuditReduced runs the audit matrix at reduced scale; RunAudit
// self-verifies every verdict, and the headline cells are re-asserted
// explicitly so a failure names the broken rung.
func TestE8AuditReduced(t *testing.T) {
	st, err := reducedAudit()
	if err != nil {
		t.Fatal(err)
	}
	if fpr := st.FalsePositiveRate(); fpr > 0.05 {
		t.Errorf("neutral false-positive rate = %.3f, want <= 0.05", fpr)
	}
	blatant := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	if blatant.Summary.Power < 0.9 {
		t.Errorf("blatant dpi power = %.2f, want >= 0.90", blatant.Summary.Power)
	}
	if blatant.Summary.Localized != audit.SegmentBeyondBorder {
		t.Errorf("blatant dpi localized %v, want beyond-border", blatant.Summary.Localized)
	}
	if naive := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyNaive); naive.Summary.Power > 0.1 {
		t.Errorf("probe evasion vs naive bursts: power = %.2f, want defeated (~0)", naive.Summary.Power)
	}
	if inter := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyInterleaved); inter.Summary.Power < 0.9 {
		t.Errorf("probe evasion vs interleaved: power = %.2f, want >= 0.90", inter.Summary.Power)
	}
	if pe := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyInterleaved); pe.Summary.Discriminating {
		t.Error("port rule vs encrypted probes ruled discriminating; encryption should have restored neutrality")
	}
	if stealth := st.Cell(ISPDPIStealth, ModeEncrypted, audit.StrategyInterleaved); !stealth.Summary.Discriminating {
		t.Errorf("stealth dpi not convicted by aggregate (power %.2f)", stealth.Summary.Power)
	}
}

// TestE8SeedReplayBitIdentical is the -seed discipline check: two runs
// with the same config must produce identical reports in every cell —
// the same bar -arms is held to.
func TestE8SeedReplayBitIdentical(t *testing.T) {
	cfg := AuditConfig{Seed: 11, Vantages: 4, InsideVantages: 2, Trials: 8}
	a, err := RunAudit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAudit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for c := range a.Cells {
		ca, cb := &a.Cells[c], &b.Cells[c]
		if !reflect.DeepEqual(ca.Reports, cb.Reports) {
			t.Fatalf("cell %v/%v/%v: replay diverged", ca.ISP, ca.Mode, ca.Strategy)
		}
	}
}

// Hmm-proofing: the replay test above would pass trivially if Vantages
// 4 produced empty reports; pin that the reports carry real trials.
func TestE8ReportsCarryTrials(t *testing.T) {
	st, err := RunAudit(AuditConfig{Seed: 11, Vantages: 4, InsideVantages: 2, Trials: 8})
	if err != nil {
		t.Fatal(err)
	}
	cell := st.Cell(ISPNeutral, ModeEncrypted, audit.StrategyInterleaved)
	for v, r := range cell.Reports {
		if len(r.Trials) != 8 {
			t.Fatalf("vantage %d: %d trials in the report, want 8", v, len(r.Trials))
		}
		if got := len(r.GoodputSamples(audit.RoleSuspect)); got != 8 {
			t.Fatalf("vantage %d: %d usable suspect samples, want 8", v, got)
		}
	}
}

// TestE8FullScale runs the registered experiment (every rung is a row's
// claim, so a failed rung fails the run).
func TestE8FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("full audit matrix is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E8")
	if got := row(t, res, "probe-evading dpi vs naive bursts: power").Measured; got[0] != '0' {
		t.Errorf("naive power vs probe evasion = %s, want 0%%", got)
	}
	if got := row(t, res, "blatant dpi: localization").Measured; got != "beyond-border" {
		t.Errorf("localization = %s", got)
	}
}

func TestAuditBenchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fix, err := newAuditBench()
	if err != nil {
		t.Fatal(err)
	}
	if fix.power < 0.9 {
		t.Errorf("fixture detection power = %.2f, want >= 0.90", fix.power)
	}
	if fix.fpr > 0.05 {
		t.Errorf("fixture false-positive rate = %.3f, want <= 0.05", fix.fpr)
	}
	if len(fix.report.Trials) == 0 {
		t.Fatal("fixture report empty")
	}
	if v := audit.Decide(fix.report); !v.Discriminated {
		t.Error("fixture report (blatant dpi vantage) not ruled discriminated")
	}
}
