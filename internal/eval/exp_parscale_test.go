package eval

import (
	"bytes"
	"testing"
	"time"

	"netneutral/internal/audit"
)

// reducedParScale keeps E9's contract testable at CI speed. Observe is
// on, as in the registered experiment: the sweep's identity check then
// covers the recorder rings and flight samples too.
func reducedParScale(workers []int) ParScaleConfig {
	return ParScaleConfig{
		Hosts: 1200, Seed: 9, Duration: 300 * time.Millisecond,
		Workers: workers, Observe: true,
	}
}

// TestE9ParScaleReduced runs the worker sweep at reduced scale;
// RunParScale itself enforces outcome identity across worker counts.
func TestE9ParScaleReduced(t *testing.T) {
	st, err := RunParScale(reducedParScale([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(st.Runs))
	}
	first := st.Runs[0].Stats
	if first.LocalSent == 0 || first.Sent == 0 {
		t.Fatalf("degenerate workload: sent=%d local=%d", first.Sent, first.LocalSent)
	}
	if first.Shards < 4 {
		t.Fatalf("shards = %d, want the sharded fan-out plan", first.Shards)
	}
	// The identity check must have compared real observation, not an
	// absent or empty one.
	if first.Obs == nil || first.Obs.RecorderTicks == 0 || first.Obs.SeriesPoints == 0 || first.Obs.FlightSampled == 0 {
		t.Fatalf("degenerate observation digest: %+v", first.Obs)
	}
}

// TestE6WorkerIdentity pins the acceptance bar directly: the E6 metro
// run's deterministic outputs — including what the attached Recorder
// and FlightRecorder observed — are byte-identical at -simworkers
// 1 vs 4.
func TestE6WorkerIdentity(t *testing.T) {
	cfg := MetroConfig{Hosts: 1500, Seed: 66, Duration: 250 * time.Millisecond, RatePps: 20000, Observe: true}
	cfg1, cfg4 := cfg, cfg
	cfg1.Workers, cfg4.Workers = 1, 4
	a, err := RunMetro(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMetro(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if a.identityKey() != b.identityKey() {
		t.Fatalf("E6 outcome differs across workers: %v vs %v", a.identityKey(), b.identityKey())
	}
	if a.Obs == nil || b.Obs == nil || *a.Obs != *b.Obs {
		t.Fatalf("observation digest differs across workers:\n workers=1: %+v\n workers=4: %+v", a.Obs, b.Obs)
	}
	if a.Obs.RecorderTicks == 0 || a.Obs.SeriesPoints == 0 || a.Obs.FlightSampled == 0 {
		t.Fatalf("degenerate observation: %+v", a.Obs)
	}
}

// TestE8WorkerIdentity extends the seed-replay discipline across worker
// counts: every cell's wire-encoded vantage reports — the audit's full
// measured outcome — must be byte-identical at -simworkers 1 vs 4, and
// with Observe on, so must each cell's observation digest (prober
// counters, verdict tallies, recorder rings, flight samples).
func TestE8WorkerIdentity(t *testing.T) {
	cfg := AuditConfig{Seed: 11, Vantages: 4, InsideVantages: 2, Trials: 8, Observe: true}
	cfg1, cfg4 := cfg, cfg
	cfg1.Workers, cfg4.Workers = 1, 4
	a, err := RunAudit(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAudit(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for c := range a.Cells {
		ca, cb := &a.Cells[c], &b.Cells[c]
		if len(ca.ReportWire) != len(cb.ReportWire) {
			t.Fatalf("cell %v/%v/%v: report counts differ", ca.ISP, ca.Mode, ca.Strategy)
		}
		for v := range ca.ReportWire {
			if !bytes.Equal(ca.ReportWire[v], cb.ReportWire[v]) {
				t.Fatalf("cell %v/%v/%v vantage %d: outcome differs across workers (%d vs %d bytes)",
					ca.ISP, ca.Mode, ca.Strategy, v, len(ca.ReportWire[v]), len(cb.ReportWire[v]))
			}
		}
		if ca.Obs == nil || cb.Obs == nil || *ca.Obs != *cb.Obs {
			t.Fatalf("cell %v/%v/%v: observation digest differs across workers:\n workers=1: %+v\n workers=4: %+v",
				ca.ISP, ca.Mode, ca.Strategy, ca.Obs, cb.Obs)
		}
		if ca.Obs.RecorderTicks == 0 || ca.Obs.FinalHash == 0 {
			t.Fatalf("cell %v/%v/%v: degenerate observation: %+v", ca.ISP, ca.Mode, ca.Strategy, ca.Obs)
		}
	}
	// The comparison must not be vacuous.
	if cell := a.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved); cell.Summary.Power == 0 {
		t.Fatal("blatant-dpi cell detected nothing; identity check would be meaningless")
	}
}
