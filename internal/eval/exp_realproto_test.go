package eval

import (
	"reflect"
	"testing"
)

// TestE10RealProto runs the registered experiment end to end: real DNS,
// real net/http through the neutralizer under the E7-trained DPI tap,
// and the audit cells — all self-enforced by verifyRealProto.
func TestE10RealProto(t *testing.T) {
	res, err := RunE10()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	t.Logf("\n%s", res)
}

// TestE10Deterministic is the seed-discipline check for the simnet
// bridge: the same config twice must produce identical stats — every
// latency, every classification, every audit verdict — even though real
// net/http goroutines ran on the OS scheduler in between.
func TestE10Deterministic(t *testing.T) {
	cfg := RealProtoConfig{Seed: 77}
	a, err := RunRealProto(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRealProto(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two seeded runs diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
}
