package keys

import (
	"encoding/binary"
	mathrand "math/rand"
	"net/netip"
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
// Acceptable to what time.Time arithmetic says — Sub, a Duration divide,
// and times before the anchor in epoch 0 — at the instants where the two
// could part: the anchor and every epoch boundary, one nanosecond either
// side of each, before the anchor, with a monotonic reading attached, and
// on a schedule whose anchor and epoch length are not whole seconds.
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
				if got := s.Acceptable(pkt, at); got != want {
					t.Errorf("anchor %v, epoch %v: Acceptable(%d, %v) = %v at epoch %d", sc.start, sc.epochLen, pkt, at, got, cur)
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
	now := t0.Add(2*time.Hour + time.Minute) // epoch 2
	if !s.Acceptable(2, now) {
		t.Error("current epoch must be acceptable")
	}
	if !s.Acceptable(1, now) {
		t.Error("previous epoch must be acceptable (grace)")
	}
	if s.Acceptable(0, now) {
		t.Error("two-epochs-old must be rejected")
	}
	if s.Acceptable(3, now) {
		t.Error("future epoch must be rejected")
	}
	// At epoch 0 there is no previous epoch.
	if !s.Acceptable(0, t0) {
		t.Error("epoch 0 at start must be acceptable")
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
