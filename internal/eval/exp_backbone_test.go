package eval

import (
	"strings"
	"testing"
	"time"
)

// reducedBackbone keeps E13's contract testable at CI speed: four small
// metros instead of six larger ones, with observation on so the identity
// sweep covers the recorder rings and flight samples.
func reducedBackbone(seed int64) BackboneConfig {
	return BackboneConfig{
		Metros: 4, HostsPerMetro: 200, Seed: seed,
		Duration: 150 * time.Millisecond,
		Observe:  true,
	}
}

// TestE13BackboneReduced runs the continental worker sweep at reduced
// scale; RunBackboneIdentity itself enforces bit-identical outcomes
// (including fluid accounting and the observation digest) across
// worker counts.
func TestE13BackboneReduced(t *testing.T) {
	runs, err := RunBackboneIdentity(reducedBackbone(31), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	st := runs[0]
	if st.NeutSent == 0 || st.CrossSent == 0 {
		t.Fatalf("degenerate workload: neut=%d cross=%d", st.NeutSent, st.CrossSent)
	}
	if st.FluidBytes == 0 || st.FluidTicks == 0 {
		t.Fatalf("fluid layer idle: bytes=%d ticks=%d", st.FluidBytes, st.FluidTicks)
	}
	if st.Shards != 1+st.Metros {
		t.Fatalf("shards = %d, want core + one per metro = %d", st.Shards, 1+st.Metros)
	}
	if st.Obs == nil || st.Obs.RecorderTicks == 0 || st.Obs.FlightSampled == 0 {
		t.Fatalf("degenerate observation digest: %+v", st.Obs)
	}
}

func TestE13FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("6x1000-host sweep is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E13")
	if got := row(t, res, "classifier hits at the core").Measured; got != "0" {
		t.Errorf("classifier hits = %s", got)
	}
	del := row(t, res, "cross-backbone packets delivered").Measured
	parts := strings.Split(del, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("delivery = %s, want all", del)
	}
	if row(t, res, "determinism (observed)").Measured != "verified" {
		t.Error("determinism row missing")
	}
}

// TestBackboneRejectsBadConfig: a config the scenario cannot stand on is
// an error from the builder, not a panic further in (`neutsim -backbone
// -metros 1` used to index metro 1 of 1), and an empty worker sweep is
// an error rather than a nil dereference.
func TestBackboneRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string]BackboneConfig{
		"lone metro":                 {Metros: 1, HostsPerMetro: 100},
		"cross flows use every host": {Metros: 2, HostsPerMetro: backboneCrossFlows + 1},
	} {
		if st, err := RunBackbone(cfg); err == nil {
			t.Errorf("%s: RunBackbone accepted it (%+v)", name, st)
		}
	}
	if runs, err := RunBackboneIdentity(reducedBackbone(31), nil); err == nil {
		t.Errorf("empty sweep returned %d runs and no error", len(runs))
	}
}
