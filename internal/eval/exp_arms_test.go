package eval

import (
	"testing"
	"time"

	"netneutral/internal/trafficgen"
)

// TestE7ArmsReduced runs the arms race at reduced scale so the default
// test run (and -race) stays fast; every rung of the ladder must hold
// at this scale too, since CI's smoke step runs it this size.
func TestE7ArmsReduced(t *testing.T) {
	st, err := RunArms(ArmsConfig{FlowsPerClass: 16, Seed: 7, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	voip := int(trafficgen.AppVoIP)

	pe := st.Cell(ModeEncrypted, AdvPortRule)
	if pe.PortHits != 0 {
		t.Errorf("port rule fired %d times on encrypted traffic", pe.PortHits)
	}
	de := st.Cell(ModeEncrypted, AdvDPI)
	if de.Accuracy < 0.9 {
		t.Errorf("dpi accuracy on encrypted = %.2f, want >= 0.90", de.Accuracy)
	}
	if de.Goodput[voip] >= 0.4 {
		t.Errorf("dpi left encrypted voip goodput at %.2f, want degraded", de.Goodput[voip])
	}
	dc := st.Cell(ModeCloaked, AdvDPI)
	if dc.Accuracy > 0.4 {
		t.Errorf("dpi accuracy under cloak = %.2f, want <= 0.40", dc.Accuracy)
	}
	if dc.Goodput[voip] <= 0.7 {
		t.Errorf("cloaked voip goodput = %.2f, want restored", dc.Goodput[voip])
	}
	if dc.CloakOverhead <= 1 || dc.CloakDelay <= 0 {
		t.Errorf("cloak cost not measured: overhead=%.2fx delay=%v", dc.CloakOverhead, dc.CloakDelay)
	}
}

// TestE7FullScale runs the registered experiment (every ladder rung is
// a row's claim, so a failed rung fails the run).
func TestE7FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("full arms matrix is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E7")
	if got := row(t, res, "dpi accuracy vs cloak").Measured; got != "25%" {
		t.Errorf("cloaked accuracy = %s, want 25%% (chance)", got)
	}
}

func TestDPIBenchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b, err := newDPIBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.samples) == 0 {
		t.Fatal("no held-out samples")
	}
	if b.accuracy < 0.9 {
		t.Errorf("held-out accuracy = %.2f, want >= 0.90", b.accuracy)
	}
	if b.cloakOverhead <= 1 {
		t.Errorf("cloak overhead = %.2f, want > 1", b.cloakOverhead)
	}
}
