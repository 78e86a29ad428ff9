package core

import (
	"reflect"
	"testing"

	"netneutral/internal/obs"
)

// TestRegisterStatsNames pins that every StatsSnapshot field has a
// registry family (a new Stats field must be added to the bridge).
func TestRegisterStatsNames(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterStats(reg, func() StatsSnapshot { return StatsSnapshot{} })
	families := reg.Snapshot().Metrics
	if want := reflect.TypeOf(StatsSnapshot{}).NumField(); len(families) != want {
		t.Fatalf("RegisterStats exported %d families, want %d (one per StatsSnapshot field):\n%+v",
			len(families), want, families)
	}
	for _, m := range families {
		if m.Kind != obs.KindCounterFunc {
			t.Errorf("family %s: not a counter func (%+v)", m.Name, m)
		}
	}
}
