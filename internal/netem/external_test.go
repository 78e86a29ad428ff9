package netem

import (
	"testing"
	"time"
)

// TestShardSeedStreamsDoNotCollide regresses the seed-derivation bug:
// applying the golden-ratio increment to the mixer input instead of
// stepping a mixed stream made shardSeed(r, 2) == shardSeed(r+g, 1), so
// experiments whose root seeds differed by the increment shared shard
// RNG streams.
func TestShardSeedStreamsDoNotCollide(t *testing.T) {
	const golden = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	roots := []int64{0, 1, 7, 42, -3, 1 << 40}
	for _, r := range roots {
		if a, b := shardSeed(r, 2), shardSeed(r+golden, 1); a == b {
			t.Errorf("shardSeed(%d, 2) == shardSeed(%d, 1) == %d", r, r+golden, a)
		}
		// Distinct shards of one root must differ too.
		seen := map[int64]int{}
		for id := 0; id < 64; id++ {
			s := shardSeed(r, id)
			if prev, dup := seen[s]; dup {
				t.Errorf("root %d: shards %d and %d share seed %d", r, prev, id, s)
			}
			seen[s] = id
		}
	}
	// Shard 0 must keep the root itself: single-shard replay compatibility.
	if shardSeed(99, 0) != 99 {
		t.Errorf("shard 0 seed = %d, want the root", shardSeed(99, 0))
	}
}

// TestStepMatchesRun drives a scenario one event at a time via the
// external-waiter API and checks it lands on the same counters and
// final clock as a plain Run.
func TestStepMatchesRun(t *testing.T) {
	build := func() (*Simulator, *Node) {
		s := NewSimulator(simStart, 5)
		a := s.MustAddNode("a", "", addr("10.0.0.1"))
		r := s.MustAddNode("r", "", addr("10.0.0.254"))
		b := s.MustAddNode("b", "", addr("10.0.1.1"))
		s.Connect(a, r, LinkConfig{Delay: time.Millisecond, RateBps: 1e6})
		s.Connect(r, b, LinkConfig{Delay: 2 * time.Millisecond, RateBps: 1e6})
		s.BuildRoutes()
		for i := 0; i < 5; i++ {
			if err := a.Send(mkUDP(t, a.Addr(), b.Addr(), make([]byte, 100+i))); err != nil {
				t.Fatal(err)
			}
		}
		return s, b
	}

	ref, _ := build()
	ref.Run()

	s, _ := build()
	steps := 0
	for last := s.Now(); s.Step(); last = s.Now() {
		if s.Now().Before(last) {
			t.Fatalf("Step moved the clock back from %v to %v", last, s.Now())
		}
		steps++
	}
	if s.Step() {
		t.Error("Step on an empty queue reported progress")
	}
	if got, want := s.EventsProcessed(), ref.EventsProcessed(); got != want {
		t.Errorf("events processed = %d, want %d", got, want)
	}
	if got, want := family(s, "netem_delivered_packets_total"), family(ref, "netem_delivered_packets_total"); got != want {
		t.Errorf("delivered = %d, want %d", got, want)
	}
	if !s.Now().Equal(ref.Now()) {
		t.Errorf("final clock = %v, want %v", s.Now(), ref.Now())
	}
	if uint64(steps) != s.EventsProcessed() {
		t.Errorf("steps = %d, events processed = %d", steps, s.EventsProcessed())
	}
}

// TestStepRejectsShardedSim: the single-step API must refuse a genuinely
// sharded simulator instead of silently breaking epoch ordering.
func TestStepRejectsShardedSim(t *testing.T) {
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	s.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	s.SetShardCount(2)
	b.SetShard(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Step on a sharded simulator did not panic")
		}
	}()
	s.Step()
}
