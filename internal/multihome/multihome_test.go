package multihome

import (
	"net/netip"
	"testing"
	"time"
)

var (
	n1 = netip.MustParseAddr("10.200.0.1")
	n2 = netip.MustParseAddr("10.201.0.1")
	n3 = netip.MustParseAddr("10.202.0.1")
)

func TestSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil, Static{}); err != ErrNoCandidates {
		t.Errorf("err = %v", err)
	}
	s, err := NewSelector([]netip.Addr{n1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.strategy.Name(); got != "static" {
		t.Errorf("default strategy = %q", got)
	}
}

func TestStaticAlwaysFirst(t *testing.T) {
	s, err := NewSelector([]netip.Addr{n1, n2}, Static{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := s.Pick(); got != n1 {
			t.Fatalf("static picked %v", got)
		}
	}
}

// pickN draws n picks and returns how often each candidate came up.
func pickN(s *Selector, n int) map[netip.Addr]int {
	u := make(map[netip.Addr]int)
	for i := 0; i < n; i++ {
		u[s.Pick()]++
	}
	return u
}

func TestRoundRobinEvenSpread(t *testing.T) {
	s, err := NewSelector([]netip.Addr{n1, n2, n3}, &RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	u := pickN(s, 30)
	if u[n1] != 10 || u[n2] != 10 || u[n3] != 10 {
		t.Errorf("uses = %v, want even 10/10/10", u)
	}
}

func TestWeightedPrefersFasterProvider(t *testing.T) {
	w := NewWeighted()
	s, err := NewSelector([]netip.Addr{n1, n2}, w)
	if err != nil {
		t.Fatal(err)
	}
	// Teach it: n1 is 10x faster.
	for i := 0; i < 20; i++ {
		w.Feedback(n1, true, 10*time.Millisecond)
		w.Feedback(n2, true, 100*time.Millisecond)
	}
	u := pickN(s, 1000)
	// Expected ratio ~10:1.
	if u[n1] < 800 {
		t.Errorf("fast provider picked %d/1000, want >= 800", u[n1])
	}
	if u[n2] == 0 {
		t.Error("slow provider should still get some traffic (probing)")
	}
}

func TestWeightedFailuresDeprioritize(t *testing.T) {
	w := NewWeighted()
	s, err := NewSelector([]netip.Addr{n1, n2}, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w.Feedback(n1, false, 0) // provider 1 failing
		w.Feedback(n2, true, 20*time.Millisecond)
	}
	if u := pickN(s, 500); u[n2] < 400 {
		t.Errorf("healthy provider picked %d/500", u[n2])
	}
}

func TestTrialAndErrorSticksThenFailsOver(t *testing.T) {
	s, err := NewSelector([]netip.Addr{n1, n2}, NewTrialAndError())
	if err != nil {
		t.Fatal(err)
	}
	// Sticks with the first working provider.
	a := s.Pick()
	if a != n1 {
		t.Fatalf("first pick = %v", a)
	}
	s.Feedback(n1, true, time.Millisecond)
	for i := 0; i < 5; i++ {
		if s.Pick() != n1 {
			t.Fatal("should stick with working provider")
		}
	}
	// Provider 1 fails: next pick moves to provider 2 and sticks.
	s.Feedback(n1, false, 0)
	if got := s.Pick(); got != n2 {
		t.Fatalf("failover pick = %v, want %v", got, n2)
	}
	s.Feedback(n2, true, time.Millisecond)
	if s.Pick() != n2 {
		t.Error("should stick with n2 after failover")
	}
	// Everything fails: forgiveness resets and retries from the top.
	s.Feedback(n2, false, 0)
	if got := s.Pick(); got != n1 {
		t.Errorf("all-failed pick = %v, want forgiveness back to %v", got, n1)
	}
}

func TestStrategyNames(t *testing.T) {
	if (Static{}).Name() == "" || (&RoundRobin{}).Name() == "" ||
		NewWeighted().Name() == "" || NewTrialAndError().Name() == "" {
		t.Error("strategies must be nameable for experiment output")
	}
}
