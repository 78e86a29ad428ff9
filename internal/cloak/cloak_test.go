package cloak_test

import (
	"bytes"
	"testing"
	"time"

	"netneutral/internal/cloak"
	"netneutral/internal/netem"
)

var buckets = []int{128, 512, 1400}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 124, 508, 509, 1396, 1500, 4000} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		frame := cloak.AppendFrame(nil, payload, buckets)
		if want := cloak.PaddedLen(n, buckets); len(frame) != want {
			t.Errorf("n=%d: frame len %d, want %d", n, len(frame), want)
		}
		got, cover, err := cloak.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if cover {
			t.Errorf("n=%d: payload frame decoded as cover", n)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestFramePaddingCollapsesSizes(t *testing.T) {
	// Every payload that fits one bucket produces the same wire size:
	// the property the dpi size histogram cannot see through.
	seen := map[int]bool{}
	for n := 0; n <= 124; n += 31 {
		seen[len(cloak.AppendFrame(nil, make([]byte, n), buckets))] = true
	}
	if len(seen) != 1 {
		t.Errorf("payloads under one bucket produced %d distinct wire sizes", len(seen))
	}
}

func TestCoverFrame(t *testing.T) {
	frame := cloak.AppendCover(nil, 512)
	if len(frame) != 512 {
		t.Fatalf("cover frame %dB, want 512", len(frame))
	}
	payload, cover, err := cloak.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !cover || len(payload) != 0 {
		t.Errorf("cover=%v payload=%dB, want cover with empty payload", cover, len(payload))
	}
}

func TestDecodeRejectsHostileFrames(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"short":        {0xCF, 0},
		"bad magic":    {0x00, 0, 0, 0},
		"length past":  {0xCF, 0, 0xFF, 0xFF, 1, 2, 3},
		"length past2": {0xCF, 0, 0, 10, 1, 2, 3},
	}
	for name, frame := range cases {
		if _, _, err := cloak.DecodeFrame(frame); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestAppendFrameReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 2048)
	out := cloak.AppendFrame(buf, make([]byte, 100), buckets)
	if &out[0] != &buf[:1][0] {
		t.Error("AppendFrame reallocated despite sufficient capacity")
	}
}

func simClock() *netem.Simulator {
	return netem.NewSimulator(time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC), 1)
}

func TestShaperQuantizesTiming(t *testing.T) {
	sim := simClock()
	var at []time.Time
	sh := cloak.NewShaper(cloak.Config{SizeBuckets: buckets, Tick: 10 * time.Millisecond},
		sim, func([]byte) { at = append(at, sim.Now()) })
	// Payloads arrive at awkward offsets; emissions must land on the
	// 10ms grid, one per tick.
	for _, off := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 17 * time.Millisecond} {
		sim.Schedule(off, func() { sh.Send([]byte("hello")) })
	}
	sim.Run()
	if len(at) != 3 {
		t.Fatalf("emitted %d frames, want 3", len(at))
	}
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	for i, ts := range at {
		if rem := ts.Sub(start) % (10 * time.Millisecond); rem != 0 {
			t.Errorf("frame %d emitted off-grid at +%v", i, ts.Sub(start))
		}
	}
	// Two payloads shared the first grid slot's queue: with PerTick 1
	// they must occupy consecutive ticks.
	if at[0] == at[1] {
		t.Error("PerTick=1 released two frames on one tick")
	}
	if d := sh.Stats().AvgDelay(); d <= 0 {
		t.Errorf("queue delay not accounted: %v", d)
	}
}

func TestShaperBatchesWithPerTick(t *testing.T) {
	sim := simClock()
	var at []time.Time
	sh := cloak.NewShaper(cloak.Config{SizeBuckets: buckets, Tick: 10 * time.Millisecond, PerTick: 8},
		sim, func([]byte) { at = append(at, sim.Now()) })
	sim.Schedule(time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			sh.Send([]byte("x"))
		}
	})
	sim.Run()
	if len(at) != 5 {
		t.Fatalf("emitted %d, want 5", len(at))
	}
	for i := 1; i < 5; i++ {
		if at[i] != at[0] {
			t.Errorf("batch split across ticks: frame %d at %v vs %v", i, at[i], at[0])
		}
	}
}

func TestShaperCoverFillsIdleTicks(t *testing.T) {
	sim := simClock()
	frames, covers := 0, 0
	sh := cloak.NewShaper(cloak.Config{SizeBuckets: []int{256}, Tick: 10 * time.Millisecond, Cover: true},
		sim, func(frame []byte) {
			if len(frame) != 256 {
				t.Errorf("frame %dB, want uniform 256", len(frame))
			}
			_, cover, err := cloak.DecodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if cover {
				covers++
			} else {
				frames++
			}
		})
	sh.Run(200 * time.Millisecond)
	sim.Schedule(42*time.Millisecond, func() { sh.Send([]byte("real")) })
	sim.Run()
	if frames != 1 {
		t.Errorf("payload frames = %d, want 1", frames)
	}
	// ~20 ticks in 200ms, one consumed by the real frame.
	if covers < 15 {
		t.Errorf("cover frames = %d, want the idle grid filled (~19)", covers)
	}
	st := sh.Stats()
	if st.Overhead() < 50 {
		t.Errorf("overhead = %.1fx for 4 real bytes under full cover, want large", st.Overhead())
	}
	if st.CoverFrames != uint64(covers) || st.Frames != uint64(frames) {
		t.Errorf("stats frames=%d covers=%d, observed %d/%d", st.Frames, st.CoverFrames, frames, covers)
	}
}

func TestShaperNoTickSendsImmediately(t *testing.T) {
	sim := simClock()
	n := 0
	sh := cloak.NewShaper(cloak.Config{SizeBuckets: buckets}, sim, func(frame []byte) {
		n++
		if len(frame) != 128 {
			t.Errorf("frame %dB, want padded to 128", len(frame))
		}
	})
	sh.Send([]byte("now"))
	if n != 1 {
		t.Fatalf("emitted %d frames synchronously, want 1", n)
	}
	if sim.Run(); sim.EventsProcessed() != 0 {
		t.Error("tickless shaper scheduled events")
	}
}
