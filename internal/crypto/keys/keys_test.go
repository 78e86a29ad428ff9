package keys

import (
	"encoding/binary"
	mathrand "math/rand"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"netneutral/internal/crypto/aesutil"
)

var (
	t0   = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	root = aesutil.Key{42}
)

func newTestSchedule() *Schedule { return NewSchedule(root, t0, time.Hour) }

// masterKey derives KM for epoch e a second time, from the root, so the
// KDF tests have an expected value the schedule's cache had no part in.
func masterKey(s *Schedule, e Epoch) aesutil.Key {
	return aesutil.DeriveKey(s.root, []byte("netneutral-master-key"), binary.BigEndian.AppendUint32(nil, uint32(e)))
}

func TestEpochAt(t *testing.T) {
	s := newTestSchedule()
	cases := []struct {
		t    time.Time
		want Epoch
	}{
		{t0, 0},
		{t0.Add(59 * time.Minute), 0},
		{t0.Add(time.Hour), 1},
		{t0.Add(90 * time.Minute), 1},
		{t0.Add(48 * time.Hour), 48},
		{t0.Add(-time.Hour), 0}, // before anchor clamps to 0
	}
	for _, c := range cases {
		if got := s.EpochAt(c.t); got != c.want {
			t.Errorf("EpochAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestEpochArithmeticMatchesTimeArithmetic holds the integer EpochAt and
// the acceptance rule to what time.Time arithmetic says — Sub, a Duration
// divide, and times before the anchor in epoch 0 — at the instants where
// the two could part: the anchor and every epoch boundary, one nanosecond
// either side of each, before the anchor, with a monotonic reading
// attached, and on a schedule whose anchor and epoch length are not whole
// seconds.
func TestEpochArithmeticMatchesTimeArithmetic(t *testing.T) {
	for _, sc := range []struct {
		start    time.Time
		epochLen time.Duration
	}{
		{t0, time.Hour},
		{time.Date(2006, 11, 1, 7, 13, 59, 123456789, time.FixedZone("x", 3*3600)), 1500*time.Millisecond + 7},
		{time.Now(), time.Minute}, // a wall-clock anchor, as the daemon's
	} {
		s := NewSchedule(root, sc.start, sc.epochLen)
		ref := func(at time.Time) Epoch {
			if d := at.Sub(sc.start); d >= 0 {
				return Epoch(d / sc.epochLen)
			}
			return 0
		}
		var instants []time.Time
		for _, k := range []int64{0, 1, 2, 3, 1000, 175000} {
			for _, off := range []time.Duration{-1, 0, 1} {
				instants = append(instants, sc.start.Add(time.Duration(k)*sc.epochLen+off))
			}
		}
		instants = append(instants, sc.start.Add(-time.Nanosecond), sc.start.Add(-3*sc.epochLen), sc.start.Add(-20*365*24*time.Hour),
			sc.start.Add(5*sc.epochLen/2).In(time.UTC), time.Now().Add(5*sc.epochLen))
		for _, at := range instants {
			cur := ref(at)
			if got := s.EpochAt(at); got != cur {
				t.Errorf("anchor %v, epoch %v: EpochAt(%v) = %d, time arithmetic says %d", sc.start, sc.epochLen, at, got, cur)
			}
			for _, pkt := range []Epoch{0, 1, cur - 2, cur - 1, cur, cur + 1} {
				want := pkt == cur || cur > 0 && pkt == cur-1
				if got := s.EpochAt(at).Accepts(pkt); got != want {
					t.Errorf("anchor %v, epoch %v: EpochAt(%v).Accepts(%d) = %v at epoch %d", sc.start, sc.epochLen, at, pkt, got, cur)
				}
			}
		}
	}
}

func TestMasterKeyPerEpoch(t *testing.T) {
	s := newTestSchedule()
	k0, k1 := masterKey(s, 0), masterKey(s, 1)
	if k0 == k1 {
		t.Error("epochs must have distinct master keys")
	}
	src := netip.MustParseAddr("198.51.100.9")
	s0, _ := s.SessionKey(0, Nonce{1}, src)
	s1, _ := s.SessionKey(1, Nonce{1}, src)
	if s0 == s1 {
		t.Error("one (nonce, source) must key differently under each epoch's master key")
	}
}

// TestEpochCacheBounded: the cache keeps the newest 4 epochs derived,
// however many are asked for, and an evicted epoch derived again keys
// as it did the first time: its value is a pure function of root and
// epoch.
func TestEpochCacheBounded(t *testing.T) {
	s := newTestSchedule()
	src := netip.MustParseAddr("198.51.100.9")
	first := make([]aesutil.Key, 100)
	for e := range first {
		first[e], _ = s.SessionKey(Epoch(e), Nonce{1}, src)
		if n := len(*s.cache.Load()); n > 4 {
			t.Fatalf("after %d epochs the cache holds %d, want at most 4", e+1, n)
		}
	}
	var w Work
	for e := Epoch(96); e < 100; e++ {
		s.SessionKeyInto(&w, e, Nonce{1}, src)
	}
	if hits, misses := w.EpochCacheStats(); misses != 0 {
		t.Errorf("the newest 4 epochs: %d hits and %d misses, want no miss", hits, misses)
	}
	for _, e := range []int{0, 1, 50, 95} {
		if again, _ := s.SessionKey(Epoch(e), Nonce{1}, src); again != first[e] {
			t.Errorf("epoch %d derived again keys differently", e)
		}
	}
}

func TestSessionKeyDeterministicAndStateless(t *testing.T) {
	s := newTestSchedule()
	n := Nonce{1, 2, 3, 4, 5, 6, 7, 8}
	src := netip.MustParseAddr("198.51.100.9")
	a, err := s.SessionKey(3, n, src)
	if err != nil {
		t.Fatal(err)
	}
	// A *different* Schedule instance with the same root derives the same
	// key: this is the anycast/replica property.
	s2 := NewSchedule(root, t0, time.Hour)
	b, err := s2.SessionKey(3, n, src)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("replicas sharing the root must derive identical session keys")
	}
}

func TestSessionKeySensitivity(t *testing.T) {
	s := newTestSchedule()
	n := Nonce{1}
	src := netip.MustParseAddr("198.51.100.9")
	base, _ := s.SessionKey(0, n, src)
	if k, _ := s.SessionKey(1, n, src); k == base {
		t.Error("epoch change must change Ks")
	}
	if k, _ := s.SessionKey(0, Nonce{2}, src); k == base {
		t.Error("nonce change must change Ks")
	}
	if k, _ := s.SessionKey(0, n, netip.MustParseAddr("198.51.100.10")); k == base {
		t.Error("source change must change Ks")
	}
}

func TestSessionKeyRejectsNonIPv4(t *testing.T) {
	s := newTestSchedule()
	if _, err := s.SessionKey(0, Nonce{}, netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Error("IPv6 source should be rejected")
	}
}

func TestAcceptableGraceWindow(t *testing.T) {
	s := newTestSchedule()
	cur := s.EpochAt(t0.Add(2*time.Hour + time.Minute)) // epoch 2
	if !cur.Accepts(2) {
		t.Error("current epoch must be acceptable")
	}
	if !cur.Accepts(1) {
		t.Error("previous epoch must be acceptable (grace)")
	}
	if cur.Accepts(0) {
		t.Error("two-epochs-old must be rejected")
	}
	if cur.Accepts(3) {
		t.Error("future epoch must be rejected")
	}
	// At epoch 0 there is no previous epoch.
	if first := s.EpochAt(t0); !first.Accepts(0) || first.Accepts(^Epoch(0)) {
		t.Error("epoch 0 at start must accept itself and nothing before it")
	}
}

// synthClock feeds WallEpoch.at synthetic readings: a monotonic clock
// the test advances, a wall clock that runs with it from t0 plus
// whatever steps the test has taken, and the generation, which moves a
// second after the far anchor that armed it, plus the next of lates.
type synthClock struct {
	w        WallEpoch
	mono     time.Duration
	step     time.Duration // the wall clock reads t0 + mono + step
	anchored time.Duration // mono at the last wall read
	reads    int
	gen      uint64
	wake     time.Duration   // mono at which the generation moves; 0 when unarmed
	lates    []time.Duration // how late each wake-up comes, in turn
	wakes    int
}

func (c *synthClock) wall() time.Time { return t0.Add(c.mono + c.step) }

func (c *synthClock) epoch(s *Schedule) Epoch {
	if c.wake > 0 && c.mono >= c.wake {
		c.gen, c.wake = c.gen+1, 0
	}
	far := c.w.at(s, c.gen, c.mono-c.anchored, func() time.Time { c.anchored, c.reads = c.mono, c.reads+1; return c.wall() })
	if far && c.wake == 0 {
		c.wake = c.mono + time.Second
		if len(c.lates) > 0 {
			c.wake += c.lates[c.wakes%len(c.lates)]
		}
		c.wakes++
	}
	return c.w.e
}

// TestWallEpochMatchesEpochAt holds the cached wall-clock epoch to
// EpochAt of the wall reading: across a boundary its anchor sits 1 ns
// before, past a near anchor older than a second, on a far anchor that
// reads the wall clock again only once the generation moves, however
// late, on another schedule, and at every millisecond of runs whose
// wall clock is stepped forward and back across boundaries, on epochs
// short enough that every anchor is near and on longer ones whose
// wake-ups come up to 900 ms late. The one exception is the second after
// a step, plus that lateness where anchors are far, where it may give
// the epoch of the clock as it ran before the step.
func TestWallEpochMatchesEpochAt(t *testing.T) {
	s := newTestSchedule()
	expect := func(c *synthClock, want Epoch, reads int) {
		t.Helper()
		if got := c.epoch(s); got != want || c.reads != reads {
			t.Errorf("mono %v, wall %v: epoch %d after %d wall reads, want %d after %d", c.mono, c.wall(), got, c.reads, want, reads)
		}
	}

	c := &synthClock{step: 3*time.Hour - 1} // a near anchor 1 ns before epoch 3
	expect(c, 2, 1)
	c.mono = 1
	expect(c, 3, 2) // a far anchor: the generation moves at 1 s + 1 ns
	c.mono += time.Second - 1
	expect(c, 3, 2)
	c.mono++
	expect(c, 3, 3)

	c = &synthClock{step: 3*time.Hour - 1500*time.Millisecond} // near: the anchor ages out after 1 s
	expect(c, 2, 1)
	c.mono = time.Second - 1
	expect(c, 2, 1)
	c.mono = time.Second
	expect(c, 2, 2)

	c = &synthClock{step: 90 * time.Minute, lates: []time.Duration{900 * time.Millisecond}} // mid-epoch: far
	expect(c, 1, 1)
	c.mono = 1900*time.Millisecond - 1
	expect(c, 1, 1)
	c.mono++
	expect(c, 1, 2)
	if other := NewSchedule(root, t0, time.Minute); c.epoch(other) != 90 || c.reads != 3 {
		t.Errorf("another schedule: epoch %d after %d wall reads, want 90 after 3", c.w.e, c.reads)
	}

	// Sweeps through a dozen boundaries or more, from a schedule start
	// that is not on a whole second, with wake-ups 0–900 ms late and the
	// wall clock stepped 2 s forward and 2.5 s back. On 1.5 s + 7 ns
	// epochs every anchor is near, so a step shows within a second. On
	// 5 s epochs the first anchor is 2.05 s before a boundary and its
	// wake-up 900 ms late: one more than 1.05 s late would leave it in
	// force past the boundary.
	const maxLate = 900 * time.Millisecond
	type step struct{ at, by time.Duration }
	for _, sw := range []struct {
		epochLen, from, span, window time.Duration
		steps                        []step
	}{
		{1500*time.Millisecond + 7, 0, 10 * time.Second, time.Second, []step{{3300 * time.Millisecond, 2 * time.Second}, {6100 * time.Millisecond, -2500 * time.Millisecond}}},
		{5 * time.Second, 5*time.Second - 2050*time.Millisecond, 62 * time.Second, time.Second + maxLate, []step{{23300 * time.Millisecond, 2 * time.Second}, {41100 * time.Millisecond, -2500 * time.Millisecond}}},
	} {
		s := NewSchedule(root, t0.Add(-123456789), sw.epochLen)
		c := &synthClock{step: sw.from - 123456789, lates: []time.Duration{maxLate, maxLate / 3, 0, 2 * maxLate / 3}}
		steps := sw.steps
		var last *step
		stale, seen := 0, map[Epoch]bool{}
		for ; c.mono < sw.span; c.mono += time.Millisecond - 3 {
			if len(steps) > 0 && c.mono >= steps[0].at {
				last, steps = &steps[0], steps[1:]
				c.step += last.by
			}
			got, want := c.epoch(s), s.EpochAt(c.wall())
			seen[want] = true
			if got == want {
				continue
			}
			if last == nil || c.mono-last.at >= sw.window || got != s.EpochAt(c.wall().Add(-last.by)) {
				t.Fatalf("%v epochs, mono %v, wall %v: epoch %d, EpochAt says %d", sw.epochLen, c.mono, c.wall(), got, want)
			}
			stale++
		}
		if stale == 0 {
			t.Errorf("%v epochs: no reading after a step gave the unstepped epoch: the sweep does not reach the exception", sw.epochLen)
		}
		if limit := int(sw.span/time.Second) + len(seen) + 2; c.reads > limit {
			t.Errorf("%v epochs: %d wall reads over %v and %d epochs, want at most %d", sw.epochLen, c.reads, sw.span, len(seen), limit)
		}
		if far := c.wakes > 0; far != (sw.epochLen > 2*time.Second) {
			t.Errorf("%v epochs: far anchors %v", sw.epochLen, far)
		}
	}
}

// TestWallEpochIdleLeavesNothingRunning: a far anchor arms the
// generation's timer. With every WallEpoch idle, it fires once, its
// goroutine is gone within 2 s of the anchor, and nothing re-arms it.
func TestWallEpochIdleLeavesNothingRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	var w WallEpoch
	w.Now(NewSchedule(root, time.Now().Add(-10*time.Minute), time.Hour))
	if w.valid != 0 {
		t.Fatal("an anchor 10 min into an hour-long epoch is not far")
	}
	for deadline := time.Now().Add(2 * time.Second); wallGen.Load() == w.gen || wallArmed.Load() || runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("2 s after a far anchor: generation %d (anchored at %d), armed %v, %d goroutines (%d before)",
				wallGen.Load(), w.gen, wallArmed.Load(), runtime.NumGoroutine(), base)
		}
	}
	if wallTimer().Stop() {
		t.Error("the generation's timer re-armed itself")
	}
}

func TestNewNonceUnique(t *testing.T) {
	a, err := NewNonce(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNonce(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two random nonces collided (astronomically unlikely)")
	}
}

func TestDefaultEpochLength(t *testing.T) {
	s := NewSchedule(root, t0, 0)
	if s.EpochLength() != time.Hour {
		t.Errorf("default epoch length = %v, want 1h (paper's hourly master key)", s.EpochLength())
	}
}

func TestSessionKeyCollisionResistanceProperty(t *testing.T) {
	s := newTestSchedule()
	f := func(n1, n2 [8]byte, a1, a2 [4]byte) bool {
		if n1 == n2 && a1 == a2 {
			return true
		}
		k1, err1 := s.SessionKey(0, Nonce(n1), netip.AddrFrom4(a1))
		k2, err2 := s.SessionKey(0, Nonce(n2), netip.AddrFrom4(a2))
		return err1 == nil && err2 == nil && k1 != k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSessionKey(b *testing.B) {
	s := newTestSchedule()
	src := netip.MustParseAddr("10.0.0.1")
	n := Nonce{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SessionKey(0, n, src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionKeyIntoMatchesDeriveKey pins SessionKeyInto (cached-cipher,
// one block operation from the epoch's precomputed CBC-MAC prefix,
// zero-alloc) to the reference framing aesutil.DeriveKey(km, nonce, addr):
// replicas old and new must derive identical session keys. One Work
// crosses epochs at random, so a prefix carried over from another epoch's
// master key would show.
func TestSessionKeyIntoMatchesDeriveKey(t *testing.T) {
	s := newTestSchedule()
	var w Work
	rng := mathrand.New(mathrand.NewSource(3))
	for i := 0; i < 300; i++ {
		var n Nonce
		var a4 [4]byte
		rng.Read(n[:])
		rng.Read(a4[:])
		e := Epoch(rng.Intn(4))
		src := netip.AddrFrom4(a4)
		want := aesutil.DeriveKey(masterKey(s, e), n[:], a4[:])
		got, err := s.SessionKeyInto(&w, e, n, src)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: SessionKeyInto diverges from DeriveKey framing", i)
		}
		slow, err := s.SessionKey(e, n, src)
		if err != nil || slow != want {
			t.Fatalf("iter %d: SessionKey diverges (err=%v)", i, err)
		}
	}
	if _, err := s.SessionKeyInto(&w, 0, Nonce{}, netip.MustParseAddr("::1")); err == nil {
		t.Fatal("SessionKeyInto accepted an IPv6 source")
	}
}

func TestSessionKeyIntoZeroAlloc(t *testing.T) {
	s := newTestSchedule()
	src := netip.MustParseAddr("10.0.0.1")
	var w Work
	var n Nonce
	s.epoch(0) // prime the epoch cache
	allocs := testing.AllocsPerRun(200, func() {
		n[0]++
		if _, err := s.SessionKeyInto(&w, 0, n, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SessionKeyInto allocates %v per op, want 0", allocs)
	}
}

func BenchmarkSessionKeyInto(b *testing.B) {
	s := newTestSchedule()
	src := netip.MustParseAddr("10.0.0.1")
	n := Nonce{1, 2, 3, 4, 5, 6, 7, 8}
	var w Work
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SessionKeyInto(&w, 0, n, src); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkEpoch Epoch

// BenchmarkEpochNow prices the data path's clock, WallEpoch.Now, beside
// the wall read and divide it replaces, EpochAt(time.Now()). far is an
// anchor in mid-epoch: an atomic load and a compare. near is on 1 s
// epochs, every anchor within 2 s of a boundary: a monotonic read and a
// compare.
func BenchmarkEpochNow(b *testing.B) {
	for _, m := range []struct {
		name     string
		epochLen time.Duration
	}{{"far", time.Hour}, {"near", time.Second}} {
		s := NewSchedule(root, time.Now().Add(-10*time.Minute), m.epochLen)
		b.Run(m.name, func(b *testing.B) {
			var w WallEpoch
			for i := 0; i < b.N; i++ {
				sinkEpoch = w.Now(s)
			}
		})
	}
	s := NewSchedule(root, time.Unix(0, 0), DefaultEpochLength)
	b.Run("time.Now", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkEpoch = s.EpochAt(time.Now())
		}
	})
}
