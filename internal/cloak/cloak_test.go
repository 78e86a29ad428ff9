package cloak_test

import (
	"bytes"
	"testing"
	"time"

	"netneutral/internal/cloak"
	"netneutral/internal/netem"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1395, 1396, 1397, 1500, 4000} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		frame := cloak.AppendFrame(nil, payload)
		if want := max(n+cloak.FrameOverhead, cloak.FrameSize); len(frame) != want {
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
	// Every payload that fits a frame produces the same wire size: the
	// property the dpi size histogram cannot see through.
	seen := map[int]bool{}
	for n := 0; n <= cloak.FrameSize-cloak.FrameOverhead; n += 31 {
		seen[len(cloak.AppendFrame(nil, make([]byte, n)))] = true
	}
	if len(seen) != 1 {
		t.Errorf("payloads that fit a frame produced %d distinct wire sizes", len(seen))
	}
}

func TestCoverFrame(t *testing.T) {
	frame := cloak.AppendCover(nil)
	if len(frame) != cloak.FrameSize {
		t.Fatalf("cover frame %dB, want %d", len(frame), cloak.FrameSize)
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
	out := cloak.AppendFrame(buf, make([]byte, 100))
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
	sh := cloak.NewShaper(sim, func(frame []byte) {
		if len(frame) != cloak.FrameSize {
			t.Errorf("frame %dB, want padded to %d", len(frame), cloak.FrameSize)
		}
		at = append(at, sim.Now())
	})
	// Payloads arrive at awkward offsets; emissions must land on the
	// tick grid, one per tick.
	for _, off := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 17 * time.Millisecond} {
		sim.Schedule(off, func() { sh.Send([]byte("hello")) })
	}
	sim.Run()
	if len(at) != 3 {
		t.Fatalf("emitted %d frames, want 3", len(at))
	}
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	for i, ts := range at {
		if rem := ts.Sub(start) % cloak.Tick; rem != 0 {
			t.Errorf("frame %d emitted off-grid at +%v", i, ts.Sub(start))
		}
	}
	if d := sh.Stats().AvgDelay(); d <= 0 {
		t.Errorf("queue delay not accounted: %v", d)
	}
}

// TestShaperReleasesOneFramePerTick: a burst queued at once drains one
// frame per tick, on consecutive ticks — constant-rate output.
func TestShaperReleasesOneFramePerTick(t *testing.T) {
	sim := simClock()
	var at []time.Time
	sh := cloak.NewShaper(sim, func([]byte) { at = append(at, sim.Now()) })
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
		if d := at[i].Sub(at[i-1]); d != cloak.Tick {
			t.Errorf("frame %d left %v after frame %d, want one tick (%v)", i, d, i-1, cloak.Tick)
		}
	}
}

func TestShaperCoverFillsIdleTicks(t *testing.T) {
	sim := simClock()
	frames, covers := 0, 0
	sh := cloak.NewShaper(sim, func(frame []byte) {
		if len(frame) != cloak.FrameSize {
			t.Errorf("frame %dB, want uniform %d", len(frame), cloak.FrameSize)
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
	// 80 ticks in 200ms, one consumed by the real frame.
	if covers < 75 {
		t.Errorf("cover frames = %d, want the idle grid filled (~79)", covers)
	}
	st := sh.Stats()
	if st.Overhead() < 50 {
		t.Errorf("overhead = %.1fx for 4 real bytes under full cover, want large", st.Overhead())
	}
	if st.CoverFrames != uint64(covers) || st.Frames != uint64(frames) {
		t.Errorf("stats frames=%d covers=%d, observed %d/%d", st.Frames, st.CoverFrames, frames, covers)
	}
}
