package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	mathrand "math/rand"
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// testFlow is an outside source's session as the source holds it.
type testFlow struct {
	src   netip.Addr
	nonce keys.Nonce
	epoch keys.Epoch
	ks    aesutil.Key
}

func mkFlow(t testing.TB, sched *keys.Schedule, epoch keys.Epoch, i int) testFlow {
	t.Helper()
	f := testFlow{src: netip.AddrFrom4([4]byte{172, 20, byte(i >> 8), byte(i)}), epoch: epoch}
	binary.BigEndian.PutUint64(f.nonce[:], 0xfeed0000+uint64(i))
	ks, err := sched.SessionKey(epoch, f.nonce, f.src)
	if err != nil {
		t.Fatal(err)
	}
	f.ks = ks
	return f
}

// data builds a forward packet of the flow hiding dst, keyed under ks
// (the flow's own key unless a test wants a wrong one).
func (f testFlow) data(t testing.TB, ks aesutil.Key, dst netip.Addr) []byte {
	t.Helper()
	blk, err := aesutil.EncryptAddr(ks, dst, [8]byte{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := shim.BuildPacket(f.src, anycast, 0, &shim.Header{
		Type: shim.TypeData, InnerProto: wire.ProtoUDP,
		Epoch: f.epoch, Nonce: f.nonce, HiddenAddr: blk,
	}, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// ret builds the customer's return packet on the flow.
func (f testFlow) ret(t testing.TB, flags uint8) []byte {
	t.Helper()
	pkt, err := shim.BuildPacket(googAddr, anycast, 0, &shim.Header{
		Type: shim.TypeReturn, Flags: flags, InnerProto: wire.ProtoUDP,
		Epoch: f.epoch, Nonce: f.nonce, ClearAddr: f.src,
	}, []byte("reply"))
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// one runs pkt through n on s and returns the single output's inner
// destination (forward) or an error.
func one(t testing.TB, n *Neutralizer, s *Scratch, pkt []byte) (netip.Addr, error) {
	t.Helper()
	s.Reset()
	outs, err := n.ProcessScratch(s, pkt)
	if err != nil {
		return netip.Addr{}, err
	}
	if len(outs) != 1 {
		t.Fatalf("%d outputs, want 1", len(outs))
	}
	_, dst, err := wire.IPv4Addrs(outs[0].Pkt)
	if err != nil {
		t.Fatal(err)
	}
	return dst, nil
}

// cacheDelta is what fn added to the cache's counters.
func cacheDelta(s *Scratch, fn func()) SessionCacheStats {
	b := s.SessionCacheStats()
	fn()
	a := s.SessionCacheStats()
	return SessionCacheStats{a.Hits - b.Hits, a.Misses - b.Misses, a.Admissions - b.Admissions, a.Evictions - b.Evictions}
}

// TestSessionCacheAdmission pins when a schedule enters the cache: on a
// flow's second served packet and never on a refused one — a forged
// block, a non-customer destination, or a return packet the dynamic pool
// cannot serve, however often they repeat.
func TestSessionCacheAdmission(t *testing.T) {
	n := newTestNeutralizer(t, nil) // no dynamic pool: every FlagDynamicAddr return is refused
	sched := testSchedule()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	s := NewScratch()

	good := mkFlow(t, sched, epoch, 1)
	for i, want := range []SessionCacheStats{
		{Misses: 1},                // first sighting: fingerprint only
		{Misses: 1, Admissions: 1}, // second: stored
		{Hits: 1},
		{Hits: 1},
	} {
		pkt := good.data(t, good.ks, googAddr)
		if i == 3 {
			pkt = good.ret(t, 0) // the return direction finds the same entry
		}
		got := cacheDelta(s, func() {
			if _, err := one(t, n, s, pkt); err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
		})
		if got != want {
			t.Errorf("packet %d moved the cache by %+v, want %+v", i, got, want)
		}
	}

	forged := mkFlow(t, sched, epoch, 2)
	outsider := mkFlow(t, sched, epoch, 3)
	dyn := mkFlow(t, sched, epoch, 4)
	refused := []struct {
		pkt  []byte
		want error
	}{
		{forged.data(t, aesutil.Key{0xbd}, googAddr), ErrBadAddrBlock},
		{outsider.data(t, outsider.ks, annAddr), ErrNotCustomer},
		{dyn.ret(t, shim.FlagDynamicAddr), ErrDynPoolExhausted},
	}
	before := n.Stats().Snapshot()
	got := cacheDelta(s, func() {
		for round := 0; round < 5; round++ {
			for _, r := range refused {
				if _, err := one(t, n, s, r.pkt); !errors.Is(err, r.want) {
					t.Fatalf("got %v, want %v", err, r.want)
				}
			}
		}
	})
	if want := (SessionCacheStats{Misses: 15}); got != want {
		t.Errorf("refused traffic moved the cache by %+v, want %+v", got, want)
	}
	after := n.Stats().Snapshot()
	if d := after.DropDynExhausted - before.DropDynExhausted; d != 5 {
		t.Errorf("DropDynExhausted moved by %d, want 5", d)
	}
	if d := after.Dropped() - before.Dropped(); d != 15 {
		t.Errorf("Dropped() moved by %d, want 15", d)
	}
}

// TestSessionCacheOnePacketFlows: served traffic that never repeats
// leaves fingerprints, not entries, and evicts nothing.
func TestSessionCacheOnePacketFlows(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	sched := testSchedule()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	s := NewScratch()
	got := cacheDelta(s, func() {
		for i := 0; i < 4000; i++ {
			f := mkFlow(t, sched, epoch, i)
			if _, err := one(t, n, s, f.data(t, f.ks, googAddr)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := (SessionCacheStats{Misses: 4000}); got != want {
		t.Errorf("4000 one-packet flows moved the cache by %+v, want %+v", got, want)
	}
}

// TestSessionCacheFloodEvictsNothing runs 64 established flows beside ten
// times their rate of hostile packets — truncated, stale-epoch, random
// address block, non-customer destination — on fresh (nonce, src) and on
// the good flows' own: every good packet is still a hit, and nothing is
// admitted or evicted.
func TestSessionCacheFloodEvictsNothing(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	sched := testSchedule()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	s := NewScratch()
	// Pin the placement seed: whether 64 flows fit without nine of them
	// sharing a set (one draw in some 14 000 fails) must not decide the test.
	s.sess.rebind(n.cfg.Schedule)
	s.sess.seed = [2]uint64{0x0123456789abcdef, 0xfedcba9876543210}

	const flows = 64
	good := make([]testFlow, flows)
	pkts := make([][]byte, flows)
	for i := range good {
		good[i] = mkFlow(t, sched, epoch, i)
		pkts[i] = good[i].data(t, good[i].ks, googAddr)
	}
	for round := 0; round < 2; round++ {
		for _, pkt := range pkts {
			if _, err := one(t, n, s, pkt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.SessionCacheStats(); st.Admissions != flows || st.Evictions != 0 {
		t.Fatalf("warm-up: %+v, want %d admissions and no evictions", st, flows)
	}

	rng := mathrand.New(mathrand.NewSource(5))
	fresh := flows
	hostile := func(victim testFlow) []byte {
		f := victim // colliding: the good flow's own (epoch, nonce, src)
		if rng.Intn(2) == 0 {
			fresh++
			f = mkFlow(t, sched, epoch, fresh)
		}
		switch rng.Intn(4) {
		case 0: // truncated inside the address block
			pkt := f.data(t, f.ks, googAddr)
			return pkt[:wire.IPv4HeaderLen+shim.HeaderLen+rng.Intn(aesutil.BlockSize)]
		case 1: // two epochs ahead of the clock
			f.epoch += 2
			return f.data(t, f.ks, googAddr)
		case 2: // random address block
			var k aesutil.Key
			rng.Read(k[:])
			return f.data(t, k, googAddr)
		default: // well keyed, but the hidden destination is outside
			return f.data(t, f.ks, annAddr)
		}
	}
	before := s.SessionCacheStats()
	for round := 0; round < 4; round++ {
		for i, pkt := range pkts {
			for k := 0; k < 10; k++ {
				if _, err := one(t, n, s, hostile(good[i])); err == nil {
					t.Fatal("hostile packet served")
				}
			}
			d := cacheDelta(s, func() {
				if dst, err := one(t, n, s, pkt); err != nil || dst != googAddr {
					t.Fatalf("good flow %d: dst %v, err %v", i, dst, err)
				}
			})
			if want := (SessionCacheStats{Hits: 1}); d != want {
				t.Fatalf("round %d, good flow %d: cache moved by %+v, want one hit", round, i, d)
			}
		}
	}
	after := s.SessionCacheStats()
	if after.Admissions != before.Admissions || after.Evictions != 0 {
		t.Errorf("flood changed the cache: %+v -> %+v", before, after)
	}
}

// TestSessionCacheEpochEdges: the acceptance window is checked before the
// cache is asked, and the epoch is part of an entry's name.
func TestSessionCacheEpochEdges(t *testing.T) {
	now := tStart.Add(10 * time.Minute)
	n := newTestNeutralizer(t, func(c *Config) { c.Clock = func() time.Time { return now } })
	sched := testSchedule()
	s := NewScratch()

	f := mkFlow(t, sched, 0, 1)
	pkt := f.data(t, f.ks, googAddr)
	for i := 0; i < 3; i++ {
		if _, err := one(t, n, s, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.SessionCacheStats(); st.Hits != 1 || st.Admissions != 1 {
		t.Fatalf("warm-up: %+v", st)
	}

	// One epoch later the flow is inside the grace window and still cached.
	now = tStart.Add(70 * time.Minute)
	d := cacheDelta(s, func() {
		if dst, err := one(t, n, s, pkt); err != nil || dst != googAddr {
			t.Fatalf("grace window: dst %v, err %v", dst, err)
		}
	})
	if want := (SessionCacheStats{Hits: 1}); d != want {
		t.Errorf("grace window: cache moved by %+v, want one hit", d)
	}

	// The same (nonce, src) stamped with the new epoch is another session:
	// the epoch-0 entry must not answer it. Keyed under the new epoch's Ks
	// it is served through a miss; keyed under the old Ks it is refused.
	f1 := f
	f1.epoch = 1
	ks1, err := sched.SessionKey(1, f.nonce, f.src)
	if err != nil {
		t.Fatal(err)
	}
	d = cacheDelta(s, func() {
		if dst, err := one(t, n, s, f1.data(t, ks1, googAddr)); err != nil || dst != googAddr {
			t.Fatalf("epoch 1 packet: dst %v, err %v", dst, err)
		}
		if _, err := one(t, n, s, f1.data(t, f.ks, googAddr)); !errors.Is(err, ErrBadAddrBlock) {
			t.Fatalf("epoch 1 packet under the epoch 0 key: %v, want ErrBadAddrBlock", err)
		}
	})
	if want := (SessionCacheStats{Misses: 2}); d != want {
		t.Errorf("epoch 1 packets: cache moved by %+v, want two misses", d)
	}

	// Two epochs later the cached flow is stale, and the cache is not asked.
	now = tStart.Add(130 * time.Minute)
	d = cacheDelta(s, func() {
		if _, err := one(t, n, s, pkt); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("two epochs later: %v, want ErrStaleEpoch", err)
		}
	})
	if d != (SessionCacheStats{}) {
		t.Errorf("stale packet moved the cache by %+v", d)
	}
}

// TestScratchSharedAcrossNeutralizers: ProcessScratch takes the scratch
// from the caller, so one scratch may serve neutralizers with different
// master keys. The same (epoch, nonce, src) names a different session
// under each; both must keep producing their own outputs, alternating
// packet by packet and in runs long enough to warm the cache. The same
// holds for the epoch in force: the scratch's wall-clock view answers only
// a neutralizer without Config.Clock, and only for its own schedule.
func TestScratchSharedAcrossNeutralizers(t *testing.T) {
	schedA := keys.NewSchedule(aesutil.Key{0xa}, tStart, time.Hour)
	schedB := keys.NewSchedule(aesutil.Key{0xb}, tStart, time.Hour)
	nA := newTestNeutralizer(t, func(c *Config) { c.Schedule = schedA })
	nB := newTestNeutralizer(t, func(c *Config) { c.Schedule = schedB })
	epoch := schedA.EpochAt(tStart.Add(10 * time.Minute))
	fA, fB := mkFlow(t, schedA, epoch, 1), mkFlow(t, schedB, epoch, 1)
	if fA.nonce != fB.nonce || fA.src != fB.src || fA.ks == fB.ks {
		t.Fatal("fixture: want one (nonce, src) with two session keys")
	}
	dstA, dstB := googAddr, netip.MustParseAddr("10.10.0.6")
	pktA, pktB := fA.data(t, fA.ks, dstA), fB.data(t, fB.ks, dstB)

	s := NewScratch()
	check := func(n *Neutralizer, pkt []byte, want netip.Addr) {
		t.Helper()
		if dst, err := one(t, n, s, pkt); err != nil || dst != want {
			t.Fatalf("dst %v, err %v; want %v", dst, err, want)
		}
	}
	for i := 0; i < 6; i++ {
		check(nA, pktA, dstA)
		check(nB, pktB, dstB)
	}
	for run := 0; run < 3; run++ {
		for i := 0; i < 4; i++ {
			check(nA, pktA, dstA)
		}
		for i := 0; i < 4; i++ {
			check(nB, pktB, dstB)
		}
	}
	if st := s.SessionCacheStats(); st.Hits == 0 {
		t.Errorf("runs of four never hit the cache: %+v", st)
	}

	// The return direction reads the other half of the schedule.
	s.Reset()
	outs, err := nB.ProcessScratch(s, fB.ret(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, sh := parseShimPacket(t, outs[0].Pkt)
	if got, _, err := aesutil.DecryptAddr(fB.ks, sh.HiddenAddr); err != nil || got != googAddr {
		t.Errorf("return under B after A: hidden source %v, err %v", got, err)
	}

	// A wall-clock neutralizer, a virtual-clock one on its schedule five
	// epochs ahead, and a wall-clock one on a schedule of one-minute
	// epochs: each packet is keyed in the epoch its own neutralizer is in,
	// which neither of the others accepts.
	unix := time.Unix(0, 0)
	schedH, schedM := keys.NewSchedule(aesutil.Key{0xc}, unix, time.Hour), keys.NewSchedule(aesutil.Key{0xd}, unix, time.Minute)
	now := time.Now()
	clocked := []struct {
		n   *Neutralizer
		pkt []byte
	}{
		{newTestNeutralizer(t, func(c *Config) { c.Schedule, c.Clock = schedH, nil }), nil},
		{newTestNeutralizer(t, func(c *Config) {
			c.Schedule, c.Clock = schedH, func() time.Time { return time.Now().Add(5 * time.Hour) }
		}), nil},
		{newTestNeutralizer(t, func(c *Config) { c.Schedule, c.Clock = schedM, nil }), nil},
	}
	for i, at := range []time.Time{now, now.Add(5 * time.Hour), now} {
		sched := clocked[i].n.cfg.Schedule
		f := mkFlow(t, sched, sched.EpochAt(at), i)
		clocked[i].pkt = f.data(t, f.ks, googAddr)
	}
	for round := 0; round < 4; round++ {
		for i, c := range clocked {
			check(c.n, c.pkt, googAddr)
			other := clocked[(i+1+round%2)%len(clocked)]
			if _, err := one(t, other.n, s, c.pkt); !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("round %d: neutralizer %d's packet at the next one: %v, want ErrStaleEpoch", round, i, err)
			}
		}
	}
}

// TestSessionCacheWarmReturnMatchesFresh: a cached schedule admitted by
// the forward path (decryption half filled) serves the return path, and
// one admitted by the return path (encryption half only) serves the
// forward path, byte for byte as a fresh scratch would.
func TestSessionCacheWarmReturnMatchesFresh(t *testing.T) {
	sched := testSchedule()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	f := mkFlow(t, sched, epoch, 1)
	fwd, ret := f.data(t, f.ks, googAddr), f.ret(t, 0)
	for name, order := range map[string][][]byte{
		"forward admits": {fwd, fwd, ret, fwd},
		"return admits":  {ret, ret, fwd, ret},
	} {
		// One deterministic entropy stream per scratch: the return path
		// draws its salt from it, so equal streams mean equal bytes.
		warmN := newTestNeutralizer(t, nil)
		freshN := newTestNeutralizer(t, nil)
		warm := NewScratch()
		for i, pkt := range order {
			warm.Reset()
			w, errW := warmN.ProcessScratch(warm, pkt)
			fr, errF := freshN.ProcessScratch(NewScratch(), pkt)
			if errW != nil || errF != nil {
				t.Fatalf("%s, packet %d: warm %v, fresh %v", name, i, errW, errF)
			}
			if !bytes.Equal(w[0].Pkt, fr[0].Pkt) {
				t.Errorf("%s, packet %d: warm and fresh outputs differ", name, i)
			}
		}
		if st := warm.SessionCacheStats(); st.Hits != 2 {
			t.Errorf("%s: %+v, want the last two packets to hit", name, st)
		}
	}
}

// TestSessionCacheZeroAllocExceptAdmission pins what the cache may
// allocate and when: nothing for traffic the neutralizer refuses (stale
// epoch, forged block, non-customer destination, truncated) or serves
// once (a one-packet flow leaves four bytes in a doorkeeper); one object of
// at most 384 bytes — the way's AES schedule — for the packet that admits
// a flow, its second served one, into a way never filled before; nothing
// for that flow afterwards; and nothing for an admission that evicts, which
// overwrites the schedule the way already has.
func TestSessionCacheZeroAllocExceptAdmission(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	n := newTestNeutralizer(t, nil)
	sched, s := n.cfg.Schedule, NewScratch()
	serve := func(pkt []byte, want error) {
		s.Reset()
		if _, err := n.ProcessScratch(s, pkt); !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}
	// Warm up: the output ring, the epoch cipher, and — by admitting one
	// flow — the cache's table of schedules.
	f0 := mkFlow(t, sched, 0, 0)
	for i := 0; i < 3; i++ {
		serve(f0.data(t, f0.ks, googAddr), nil)
	}
	const runs = 50
	type refusal struct {
		pkt  []byte
		want error
	}
	var refused []refusal
	var once, twice [][]byte
	for i := 1; i <= runs+1; i++ {
		f, stale := mkFlow(t, sched, 0, i), mkFlow(t, sched, 5, i)
		good := f.data(t, f.ks, googAddr)
		refused = append(refused,
			refusal{stale.data(t, stale.ks, googAddr), ErrStaleEpoch},
			refusal{f.data(t, aesutil.Key{byte(i)}, googAddr), ErrBadAddrBlock},
			refusal{f.data(t, f.ks, annAddr), ErrNotCustomer},
			refusal{good[:wire.IPv4HeaderLen+shim.HeaderLen+i%aesutil.BlockSize], wire.ErrIPv4BadLength})
		once = append(once, good)
		g := mkFlow(t, sched, 0, 1000+i)
		twice = append(twice, g.data(t, g.ks, googAddr))
		serve(twice[i-1], nil) // first sighting
	}
	next := 0
	d := cacheDelta(s, func() {
		if a := testing.AllocsPerRun(runs, func() {
			for _, r := range refused[4*next : 4*next+4] {
				serve(r.pkt, r.want)
			}
			serve(once[next], nil)
			next++
		}); a != 0 {
			t.Errorf("refused packets and one-packet flows allocate %v per batch of five, want 0", a)
		}
	})
	if d.Admissions != 0 || d.Hits != 0 {
		t.Errorf("refused packets and one-packet flows moved the cache: %+v", d)
	}
	next = 0
	d = cacheDelta(s, func() {
		if a := testing.AllocsPerRun(runs, func() { serve(twice[next], nil); next++ }); a != 1 {
			t.Errorf("the packet that admits a flow to a fresh way allocates %v objects, want 1 (the way's schedule)", a)
		}
	})
	if d.Admissions != runs+1 || d.Evictions != 0 {
		t.Errorf("%d second sightings: %+v", runs+1, d)
	}
	// The one object is the way's schedule: its type's size bounds it
	// exactly, where the process-wide TotalAlloc also counted whatever
	// other goroutines allocated meanwhile.
	if size := unsafe.Sizeof(aesutil.ExpandedKey{}); size > 384 {
		t.Errorf("a way's schedule is a %d-byte object, want at most 384", size)
	}
	next = 0
	d = cacheDelta(s, func() {
		if a := testing.AllocsPerRun(runs, func() { serve(twice[next], nil); next++ }); a != 0 {
			t.Errorf("an admitted flow's packets allocate %v, want 0", a)
		}
	})
	if d.Hits != runs+1 {
		t.Errorf("admitted flows: %+v, want %d hits", d, runs+1)
	}
	// Fill every way, then admit more: each admission evicts, and refills
	// the evicted way's schedule by copy.
	filled := func() (n int) {
		for si := range s.sess.blks {
			for _, ek := range s.sess.blks[si] {
				if ek != nil {
					n++
				}
			}
		}
		return n
	}
	i := 2000
	for ; filled() < sessSets*sessWays && i < 30000; i++ {
		f := mkFlow(t, sched, 0, i)
		pkt := f.data(t, f.ks, googAddr)
		serve(pkt, nil)
		serve(pkt, nil)
	}
	if filled() != sessSets*sessWays {
		t.Fatalf("%d of %d ways filled after %d flows", filled(), sessSets*sessWays, i-2000)
	}
	for j := range twice {
		g := mkFlow(t, sched, 0, 40000+j)
		twice[j] = g.data(t, g.ks, googAddr)
		serve(twice[j], nil) // first sighting
	}
	next = 0
	d = cacheDelta(s, func() {
		if a := testing.AllocsPerRun(runs, func() { serve(twice[next], nil); next++ }); a != 0 {
			t.Errorf("an admission into an evicted way allocates %v, want 0", a)
		}
	})
	if d.Admissions != runs+1 || d.Evictions != runs+1 {
		t.Errorf("%d second sightings on a full cache: %+v, want as many admissions and evictions", runs+1, d)
	}
}
